open Lemur_topology

type spare_policy = Slo_driven | Even | By_index | No_extra

type chain_alloc = {
  plan : Plan.plan;
  sg_cores : int array;
  seg_server : (int * string) list;
}

let cores_used a = Array.fold_left ( + ) 0 a.sg_cores

let capacity_of config a =
  Plan.capacity config a.plan ~cores:(Array.to_list a.sg_cores)

let segment_min_cores plan seg =
  List.length
    (List.filter (fun sg -> sg.Plan.sg_segment = seg) plan.Plan.subgroups)

(* Mutable free-core ledger per server. *)
let make_ledger config =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s.Lemur_platform.Server.name
        (Lemur_platform.Server.nf_cores s))
    config.Plan.topology.Topology.servers;
  tbl

let freest ledger need =
  Hashtbl.fold
    (fun name free best ->
      match best with
      | Some (_, bf) when bf >= free -> best
      | _ -> if free >= need then Some (name, free) else best)
    ledger None

let take ledger name n =
  let free = Hashtbl.find ledger name in
  assert (free >= n);
  Hashtbl.replace ledger name (free - n)

(* A chain under allocation, with its subgroups and the server each one
   is pinned to as arrays aligned with [sg_cores]. *)
type chain = { a : chain_alloc; sgs : Plan.subgroup array; servers : string array }

let chain_of a =
  let sgs = Array.of_list a.plan.Plan.subgroups in
  let servers = Array.map (fun sg -> List.assoc sg.Plan.sg_segment a.seg_server) sgs in
  { a; sgs; servers }

(* The subgroup currently limiting the chain's capacity. *)
let binding_subgroup config c =
  let clock =
    match config.Plan.topology.Topology.servers with
    | s :: _ -> s.Lemur_platform.Server.clock_hz
    | [] -> Lemur_util.Units.ghz 1.7
  in
  let scored =
    List.mapi
      (fun i sg ->
        if sg.Plan.sg_fraction <= 0.0 then (i, infinity)
        else
          let rate =
            Lemur_bess.Cost.subgroup_rate
              ~core_tagging:config.Plan.metron_steering ~clock_hz:clock
              ~cores:c.a.sg_cores.(i) ~pkt_bytes:config.Plan.pkt_bytes
              ~nf_cycles:[ sg.Plan.sg_cycles ] ()
          in
          (i, rate /. sg.Plan.sg_fraction))
      c.a.plan.Plan.subgroups
  in
  Lemur_util.Listx.min_by (fun (_, cap) -> cap) scored |> Option.map fst

(* Try to add one core to the chain's binding subgroup. Returns true on
   success. *)
let grow_binding config ledger c =
  match binding_subgroup config c with
  | None -> false
  | Some i ->
      if not c.sgs.(i).Plan.sg_replicable then false
      else
        let server = c.servers.(i) in
        let free = Option.value (Hashtbl.find_opt ledger server) ~default:0 in
        if free < 1 then false
        else begin
          take ledger server 1;
          c.a.sg_cores.(i) <- c.a.sg_cores.(i) + 1;
          true
        end

let meet_tmin config ledger c =
  let tmin = c.a.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_min in
  let continue = ref true in
  while capacity_of config c.a < tmin && !continue do
    continue := grow_binding config ledger c
  done

(* Adding one core to a chain is not always immediately profitable: a
   cheap bottleneck subgroup may gate an expensive one (the UrlFilter /
   Encrypt ladder in chain 1), so a purely myopic greedy starves such
   chains. We look ahead up to [lookahead] cores along the chain's
   binding-subgroup sequence and score each prefix by gain per core. *)
let lookahead = 4

(* Simulate spending up to [lookahead] cores on chain [c]'s binding
   subgroups, each from the free cores of its own server; returns
   (moves, gain) for the best per-core prefix. The ledger is only read:
   the result depends on the chain's cores and, for each server the
   chain uses, only on [min free lookahead]. *)
let best_move_sequence config ledger c =
  let a = c.a in
  let tmax = a.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_max in
  let saved = Array.copy a.sg_cores in
  let spent = Hashtbl.create 4 in
  let free server =
    Option.value (Hashtbl.find_opt ledger server) ~default:0
    - Option.value (Hashtbl.find_opt spent server) ~default:0
  in
  let base_cap = Float.min tmax (capacity_of config a) in
  let moves = ref [] in
  let best = ref None in
  (try
     for step = 1 to lookahead do
       match binding_subgroup config c with
       | None -> raise Exit
       | Some i ->
           let server = c.servers.(i) in
           if (not c.sgs.(i).Plan.sg_replicable) || free server < 1 then raise Exit
           else begin
             Hashtbl.replace spent server
               (1 + Option.value (Hashtbl.find_opt spent server) ~default:0);
             a.sg_cores.(i) <- a.sg_cores.(i) + 1;
             moves := (i, server) :: !moves;
             let gain = Float.min tmax (capacity_of config a) -. base_cap in
             let per_core = gain /. float_of_int step in
             if gain > 1e3 then
               match !best with
               | Some (_, bpc) when bpc >= per_core -> ()
               | _ -> best := Some (List.rev !moves, per_core)
           end
     done
   with Exit -> ());
  Array.blit saved 0 a.sg_cores 0 (Array.length saved);
  !best

(* Each round spends the best per-core move sequence over all chains
   (the first chain on ties). Scores are kept between rounds and
   recomputed only when what they read changes: the moved chain's
   cores, or a server's free count at or below [lookahead]. *)
let spend_spare_slo_driven config ledger chains =
  let chains = Array.of_list chains in
  let n = Array.length chains in
  let scores = Array.make n None and stale = Array.make n true in
  let continue = ref true in
  while !continue do
    let best = ref None in
    Array.iteri
      (fun k c ->
        if stale.(k) then begin
          scores.(k) <- best_move_sequence config ledger c;
          stale.(k) <- false
        end;
        match (scores.(k), !best) with
        | Some (_, pc), Some (_, _, bpc) when not (pc > bpc) -> ()
        | Some (moves, pc), _ -> best := Some (k, moves, pc)
        | None, _ -> ())
      chains;
    match !best with
    | None -> continue := false
    | Some (k, moves, _) ->
        stale.(k) <- true;
        List.iter
          (fun (i, server) ->
            if Hashtbl.find ledger server <= lookahead then
              Array.iteri
                (fun j c -> if Array.mem server c.servers then stale.(j) <- true)
                chains;
            take ledger server 1;
            chains.(k).a.sg_cores.(i) <- chains.(k).a.sg_cores.(i) + 1)
          moves
  done

(* HW Preferred is SLO-blind: spare cores go to chains round-robin, and
   within a chain to its replicable subgroups cyclically — not to the
   bottleneck. This is what "allocates spare cores evenly among chains"
   costs (§5.2: it "fails once the SLO for a slower chain cannot be
   satisfied because of insufficient cores"). *)
let spend_spare_even ledger chains =
  let cursors = List.map (fun c -> (c, ref 0)) chains in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun (c, cursor) ->
        let n = Array.length c.sgs in
        if n > 0 then begin
          (* next replicable subgroup from the cursor, cyclically *)
          let rec try_from attempts =
            if attempts >= n then ()
            else begin
              let i = !cursor mod n in
              cursor := !cursor + 1;
              let server = c.servers.(i) in
              let free = Option.value (Hashtbl.find_opt ledger server) ~default:0 in
              if c.sgs.(i).Plan.sg_replicable && free >= 1 then begin
                take ledger server 1;
                c.a.sg_cores.(i) <- c.a.sg_cores.(i) + 1;
                progress := true
              end
              else try_from (attempts + 1)
            end
          in
          try_from 0
        end)
      cursors
  done

let spend_spare_by_index config ledger chains =
  List.iter
    (fun c ->
      let tmax = c.a.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_max in
      let continue = ref true in
      while capacity_of config c.a < tmax && !continue do
        continue := grow_binding config ledger c
      done)
    chains

let allocate config policy plans =
  Lemur_telemetry.Telemetry.(with_span (current ()) "placer.alloc") @@ fun () ->
  let ledger = make_ledger config in
  (* Minimum allocation: pin each server segment to a server with room
     for one core per subgroup; larger segments first. *)
  let chains =
    List.map
      (fun plan ->
        let segs =
          Lemur_util.Listx.uniq ( = )
            (List.map (fun sg -> sg.Plan.sg_segment) plan.Plan.subgroups)
        in
        (plan, segs))
      plans
  in
  let assignments =
    List.map
      (fun (plan, segs) ->
        let seg_server =
          List.map
            (fun seg ->
              let need = segment_min_cores plan seg in
              match freest ledger need with
              | Some (name, _) ->
                  take ledger name need;
                  Some (seg, name)
              | None -> None)
            (List.sort
               (fun a b ->
                 compare (segment_min_cores plan b) (segment_min_cores plan a))
               segs)
        in
        if List.exists Option.is_none seg_server then None
        else
          Some
            {
              plan;
              sg_cores = Array.make (List.length plan.Plan.subgroups) 1;
              seg_server = List.filter_map Fun.id seg_server;
            })
      chains
  in
  if List.exists Option.is_none assignments then None
  else begin
    let allocs = List.filter_map Fun.id assignments in
    let chains = List.map chain_of allocs in
    (match policy with
    | No_extra -> ()
    | Slo_driven ->
        List.iter (meet_tmin config ledger) chains;
        spend_spare_slo_driven config ledger chains
    | Even ->
        (* HW Preferred does not target SLOs; it just spreads cores. *)
        spend_spare_even ledger chains
    | By_index ->
        List.iter (meet_tmin config ledger) chains;
        spend_spare_by_index config ledger chains);
    Some allocs
  end

let assign_only config chains =
  let ledger = make_ledger config in
  (* Assign segments in descending core need across ALL chains — a
     chain-at-a-time greedy lets one chain's small segments spread over
     the rack (freest is worst-fit) and strand a later chain's big
     segment with no server that still fits it. *)
  let needs =
    List.concat
      (List.mapi
         (fun ci (plan, sg_cores) ->
           let segs =
             Lemur_util.Listx.uniq ( = )
               (List.map (fun sg -> sg.Plan.sg_segment) plan.Plan.subgroups)
           in
           let seg_need seg =
             List.fold_left
               (fun acc (i, sg) ->
                 if sg.Plan.sg_segment = seg then acc + sg_cores.(i) else acc)
               0
               (List.mapi (fun i sg -> (i, sg)) plan.Plan.subgroups)
           in
           List.map (fun seg -> (ci, seg, seg_need seg)) segs)
         chains)
  in
  let placed =
    List.map
      (fun (ci, seg, need) ->
        match freest ledger need with
        | Some (name, _) ->
            take ledger name need;
            Some (ci, seg, name)
        | None -> None)
      (List.sort (fun (_, _, a) (_, _, b) -> compare b a) needs)
  in
  if List.exists Option.is_none placed then None
  else
    let placed = List.filter_map Fun.id placed in
    Some
      (List.mapi
         (fun ci (plan, sg_cores) ->
           let seg_server =
             List.filter_map
               (fun (ci', seg, name) ->
                 if ci' = ci then Some (seg, name) else None)
               placed
           in
           { plan; sg_cores; seg_server })
         chains)

let link_loads config a =
  let loads = Hashtbl.create 4 in
  let bump name v =
    if v > 0.0 then
      Hashtbl.replace loads name (v +. Option.value (Hashtbl.find_opt loads name) ~default:0.0)
  in
  List.iter
    (fun (seg, server) ->
      match List.assoc_opt seg a.plan.Plan.segment_fractions with
      | Some frac -> bump server frac
      | None -> ())
    a.seg_server;
  (* SmartNIC-only visits load the NIC host's link. *)
  let seg_total = Lemur_util.Listx.sum_by snd a.plan.Plan.segment_fractions in
  let nic_extra = Float.max 0.0 (a.plan.Plan.link_visits -. seg_total) in
  (match config.Plan.topology.Topology.smartnics with
  | nic :: _ -> bump nic.Lemur_platform.Smartnic.host nic_extra
  | [] -> ());
  (match config.Plan.topology.Topology.ofswitch with
  | Some sw when a.plan.Plan.of_visits > 0.0 ->
      bump sw.Lemur_platform.Ofswitch.name a.plan.Plan.of_visits
  | _ -> ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) loads []

let evaluate config allocs =
  let topo = config.Plan.topology in
  let link_caps =
    List.map
      (fun s ->
        ( s.Lemur_platform.Server.name,
          Lemur_platform.Server.nic_capacity s ))
      topo.Topology.servers
    @
    match topo.Topology.ofswitch with
    | Some sw -> [ (sw.Lemur_platform.Ofswitch.name, sw.Lemur_platform.Ofswitch.capacity) ]
    | None -> []
  in
  (* Each traffic aggregate enters and leaves through one ToR port, so
     no chain can exceed the port rate even when fully accelerated. *)
  let port_cap = topo.Topology.tor.Lemur_platform.Pisa.port_capacity in
  let entries =
    List.map
      (fun a ->
        let slo = a.plan.Plan.input.Plan.slo in
        {
          Ratelp.entry_id = a.plan.Plan.input.Plan.id;
          t_min = slo.Lemur_slo.Slo.t_min;
          t_max = slo.Lemur_slo.Slo.t_max;
          weight = slo.Lemur_slo.Slo.weight;
          capacity = Float.min port_cap (capacity_of config a);
          link_loads = link_loads config a;
        })
      allocs
  in
  Ratelp.solve ~link_caps entries
