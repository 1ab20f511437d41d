(* Reference implementations of placer Step 3 that repeat every piece
   of work the library skips: an allocator that re-scores every chain
   on every round of spare-core spending, and a sweep that runs the
   latency check, allocation, rate LP and stage check for every variant
   (repeats included) under every spare-core policy. The differential
   tests in [Test_alloc] and [Test_placer] check the library against
   them. *)
open Lemur_placer
open Lemur_spec
open Lemur_topology

(* ------------------------------------------------------------------ *)
(* Core allocation: every chain re-scored on every round               *)

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

let server_of_sg (a : Alloc.chain_alloc) sg_index =
  let sg = List.nth a.plan.Plan.subgroups sg_index in
  List.assoc sg.Plan.sg_segment a.seg_server

(* The subgroup currently limiting the chain's capacity. *)
let binding_subgroup config (a : Alloc.chain_alloc) =
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
              ~cores:a.sg_cores.(i) ~pkt_bytes:config.Plan.pkt_bytes
              ~nf_cycles:[ sg.Plan.sg_cycles ] ()
          in
          (i, rate /. sg.Plan.sg_fraction))
      a.plan.Plan.subgroups
  in
  Lemur_util.Listx.min_by (fun (_, cap) -> cap) scored |> Option.map fst

(* Try to add one core to the chain's binding subgroup. Returns true on
   success. *)
let grow_binding config ledger (a : Alloc.chain_alloc) =
  match binding_subgroup config a with
  | None -> false
  | Some i ->
      let sg = List.nth a.plan.Plan.subgroups i in
      if not sg.Plan.sg_replicable then false
      else
        let server = server_of_sg a i in
        let free = Option.value (Hashtbl.find_opt ledger server) ~default:0 in
        if free < 1 then false
        else begin
          take ledger server 1;
          a.sg_cores.(i) <- a.sg_cores.(i) + 1;
          true
        end

let meet_tmin config ledger (a : Alloc.chain_alloc) =
  let tmin = a.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_min in
  let continue = ref true in
  while Alloc.capacity_of config a < tmin && !continue do
    continue := grow_binding config ledger a
  done

(* Adding one core to a chain is not always immediately profitable: a
   cheap bottleneck subgroup may gate an expensive one (the UrlFilter /
   Encrypt ladder in chain 1), so a purely myopic greedy starves such
   chains. We look ahead up to [lookahead] cores along the chain's
   binding-subgroup sequence and score each prefix by gain per core. *)
let lookahead = 4

(* Simulate spending up to [budget] cores on chain [a]'s binding
   subgroups; returns (moves, gain) for the best per-core prefix. The
   ledger is only read. *)
let best_move_sequence config ledger (a : Alloc.chain_alloc) ~budget =
  let tmax = a.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_max in
  let saved = Array.copy a.sg_cores in
  let spent = Hashtbl.create 4 in
  let free server =
    Option.value (Hashtbl.find_opt ledger server) ~default:0
    - Option.value (Hashtbl.find_opt spent server) ~default:0
  in
  let base_cap = Float.min tmax (Alloc.capacity_of config a) in
  let moves = ref [] in
  let best = ref None in
  (try
     for step = 1 to min budget lookahead do
       match binding_subgroup config a with
       | None -> raise Exit
       | Some i ->
           let sg = List.nth a.plan.Plan.subgroups i in
           let server = server_of_sg a i in
           if (not sg.Plan.sg_replicable) || free server < 1 then raise Exit
           else begin
             Hashtbl.replace spent server
               (1 + Option.value (Hashtbl.find_opt spent server) ~default:0);
             a.sg_cores.(i) <- a.sg_cores.(i) + 1;
             moves := (i, server) :: !moves;
             let gain = Float.min tmax (Alloc.capacity_of config a) -. base_cap in
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

let spend_spare_slo_driven config ledger (allocs : Alloc.chain_alloc list) =
  let total_free () = Hashtbl.fold (fun _ f acc -> acc + f) ledger 0 in
  let continue = ref true in
  while !continue do
    let budget = total_free () in
    if budget = 0 then continue := false
    else begin
      let candidates =
        List.filter_map
          (fun a ->
            match best_move_sequence config ledger a ~budget with
            | None -> None
            | Some (moves, per_core) -> Some (a, moves, per_core))
          allocs
      in
      match Lemur_util.Listx.max_by (fun (_, _, pc) -> pc) candidates with
      | None -> continue := false
      | Some (a, moves, _) ->
          List.iter
            (fun (i, server) ->
              take ledger server 1;
              a.sg_cores.(i) <- a.sg_cores.(i) + 1)
            moves
    end
  done

(* HW Preferred is SLO-blind: spare cores go to chains round-robin, and
   within a chain to its replicable subgroups cyclically — not to the
   bottleneck. This is what "allocates spare cores evenly among chains"
   costs (§5.2: it "fails once the SLO for a slower chain cannot be
   satisfied because of insufficient cores"). *)
let spend_spare_even ledger (allocs : Alloc.chain_alloc list) =
  let cursors = List.map (fun a -> (a, ref 0)) allocs in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun ((a : Alloc.chain_alloc), cursor) ->
        let n = Array.length a.sg_cores in
        if n > 0 then begin
          (* next replicable subgroup from the cursor, cyclically *)
          let rec try_from attempts =
            if attempts >= n then ()
            else begin
              let i = !cursor mod n in
              cursor := !cursor + 1;
              let sg = List.nth a.plan.Plan.subgroups i in
              let server = server_of_sg a i in
              let free = Option.value (Hashtbl.find_opt ledger server) ~default:0 in
              if sg.Plan.sg_replicable && free >= 1 then begin
                take ledger server 1;
                a.sg_cores.(i) <- a.sg_cores.(i) + 1;
                progress := true
              end
              else try_from (attempts + 1)
            end
          in
          try_from 0
        end)
      cursors
  done

let spend_spare_by_index config ledger (allocs : Alloc.chain_alloc list) =
  List.iter
    (fun (a : Alloc.chain_alloc) ->
      let tmax = a.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_max in
      let continue = ref true in
      while Alloc.capacity_of config a < tmax && !continue do
        continue := grow_binding config ledger a
      done)
    allocs

let allocate config policy plans =
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
              Alloc.plan;
              sg_cores = Array.make (List.length plan.Plan.subgroups) 1;
              seg_server = List.filter_map Fun.id seg_server;
            })
      chains
  in
  if List.exists Option.is_none assignments then None
  else begin
    let allocs = List.filter_map Fun.id assignments in
    (match policy with
    | Alloc.No_extra -> ()
    | Slo_driven ->
        List.iter (meet_tmin config ledger) allocs;
        spend_spare_slo_driven config ledger allocs
    | Even ->
        (* HW Preferred does not target SLOs; it just spreads cores. *)
        spend_spare_even ledger allocs
    | By_index ->
        List.iter (meet_tmin config ledger) allocs;
        spend_spare_by_index config ledger allocs);
    Some allocs
  end

(* ------------------------------------------------------------------ *)
(* Step 3: every variant under every policy                            *)

let check_latency plans =
  match List.find_opt (fun p -> not (Plan.meets_latency p)) plans with
  | Some p ->
      Error
        (Printf.sprintf "chain %s exceeds its latency SLO (%.1f us > %.1f us)"
           p.Plan.input.Plan.id
           (Lemur_util.Units.to_us (Plan.latency p))
           (Lemur_util.Units.to_us p.Plan.input.Plan.slo.Lemur_slo.Slo.d_max))
  | None -> Ok ()

let build_placement strategy config allocs lp stages =
  let reports =
    List.map
      (fun (a : Alloc.chain_alloc) ->
        {
          Strategy.plan = a.Alloc.plan;
          cores = a.Alloc.sg_cores;
          seg_server = a.Alloc.seg_server;
          capacity = Alloc.capacity_of config a;
          rate =
            Option.value
              (List.assoc_opt a.Alloc.plan.Plan.input.Plan.id lp.Ratelp.rates)
              ~default:0.0;
          latency = Plan.latency a.Alloc.plan;
          bounces = a.Alloc.plan.Plan.max_path_bounces;
        })
      allocs
  in
  {
    Strategy.strategy;
    chain_reports = reports;
    total_rate = lp.Ratelp.total_rate;
    total_marginal = lp.Ratelp.total_marginal;
    stages_used = stages;
    cores_used = List.fold_left (fun acc a -> acc + Alloc.cores_used a) 0 allocs;
    elapsed = 0.0;
  }

(* The compiler is run afresh: the library's verdict table only memoizes
   this same function. *)
let finalize strategy config policy plans =
  match check_latency plans with
  | Error reason -> Strategy.Infeasible { reason }
  | Ok () -> (
      match allocate config policy plans with
      | None -> Strategy.Infeasible { reason = "not enough server cores" }
      | Some allocs -> (
          match Alloc.evaluate config allocs with
          | None ->
              Strategy.Infeasible
                { reason = "rate LP infeasible (SLOs unsatisfiable)" }
          | Some lp -> (
              match Stagecheck.check config plans with
              | Stagecheck.Overflow n ->
                  Strategy.Infeasible
                    { reason = Printf.sprintf "switch stages exceeded (%d needed)" n }
              | Stagecheck.Conflict msg ->
                  Strategy.Infeasible { reason = "parser conflict: " ^ msg }
              | Stagecheck.Fits stages ->
                  Strategy.Placed
                    (build_placement strategy config allocs lp stages))))

let best_allocation ?policy strategy config variants =
  let policies =
    match policy with
    | Some p -> [ p ]
    | None -> [ Alloc.Slo_driven; Alloc.By_index; Alloc.Even ]
  in
  let outcomes =
    List.concat_map
      (fun plans -> List.map (fun p -> finalize strategy config p plans) policies)
      variants
  in
  let best =
    Lemur_util.Listx.max_by
      (function
        | Strategy.Placed p -> p.Strategy.total_marginal
        | Strategy.Infeasible _ -> neg_infinity)
      (List.filter Strategy.is_feasible outcomes)
  in
  match best with
  | Some o -> o
  | None -> (
      match outcomes with
      | o :: _ -> o
      | [] -> Strategy.Infeasible { reason = "no variants" })

let preference_order = function
  | `Hw -> [ Plan.Switch; Plan.Smartnic; Plan.Ofswitch; Plan.Server ]
  | `Sw -> [ Plan.Server; Plan.Switch; Plan.Smartnic; Plan.Ofswitch ]

let preferred_plan config input pref =
  let graph = input.Plan.graph in
  let locs = Array.make (Graph.size graph) Plan.Server in
  List.iter
    (fun node ->
      let allowed = Plan.allowed_locations config node.Graph.instance in
      if allowed = [] then
        raise
          (Plan.Invalid_pattern
             (Printf.sprintf "%s has no feasible platform in this rack"
                node.Graph.instance.Lemur_nf.Instance.name));
      locs.(node.Graph.id) <-
        (match List.find_opt (fun l -> List.mem l allowed) (preference_order pref) with
        | Some l -> l
        | None -> List.hd allowed))
    (Graph.nodes graph);
  Plan.elaborate config input locs

(* The variant list before duplicates were dropped repeated some
   variants after their first occurrence; doubling every variant in
   place reproduces that shape. *)
let lemur_sweep ?policy strategy config inputs =
  match Strategy.lemur_variants config inputs with
  | None -> Strategy.Infeasible { reason = "no switch-feasible placement exists" }
  | Some variants ->
      best_allocation ?policy strategy config
        (List.concat_map (fun v -> [ v; v ]) variants)

let reevaluate_with_truth config = function
  | Strategy.Infeasible _ as i -> i
  | Strategy.Placed placement -> (
      let allocs =
        List.map
          (fun (r : Strategy.chain_report) ->
            {
              Alloc.plan =
                Plan.elaborate config r.Strategy.plan.Plan.input
                  r.Strategy.plan.Plan.locs;
              sg_cores = r.Strategy.cores;
              seg_server = r.Strategy.seg_server;
            })
          placement.Strategy.chain_reports
      in
      if not (List.for_all (fun a -> Plan.meets_latency a.Alloc.plan) allocs)
      then Strategy.Infeasible { reason = "d_max unsatisfiable under true profiles" }
      else
        match Alloc.evaluate config allocs with
        | None ->
            Strategy.Infeasible { reason = "SLOs unsatisfiable under true profiles" }
        | Some lp ->
            Strategy.Placed
              (build_placement Strategy.No_profiling config allocs lp
                 placement.Strategy.stages_used))

(* [Strategy.place] over the reference sweep, for every strategy that
   reaches Step 3 ([Optimal] assigns its own enumerated cores and never
   calls the allocator). *)
let place strategy config inputs =
  let single policy plans = best_allocation ~policy strategy config [ plans ] in
  let preferred pref = List.map (fun i -> preferred_plan config i pref) inputs in
  try
    match strategy with
    | Strategy.Lemur -> lemur_sweep strategy config inputs
    | Strategy.Optimal -> invalid_arg "Step3_ref.place: Optimal"
    | Strategy.Greedy -> single Alloc.By_index (preferred `Hw)
    | Strategy.Hw_preferred -> single Alloc.Even (preferred `Hw)
    | Strategy.Sw_preferred -> single Alloc.Slo_driven (preferred `Sw)
    | Strategy.Min_bounce -> (
        let plans = List.map (Strategy.min_bounce_pattern config) inputs in
        if List.exists Option.is_none plans then
          Strategy.Infeasible { reason = "a chain has no valid pattern" }
        else single Alloc.Slo_driven (List.filter_map Fun.id plans))
    | Strategy.No_profiling ->
        let blind =
          {
            config with
            Plan.profiler =
              Lemur_profiler.Profiler.create ~uniform_cycles:(Some 5000.0) ();
          }
        in
        reevaluate_with_truth config (lemur_sweep strategy blind inputs)
    | Strategy.No_core_alloc ->
        lemur_sweep ~policy:Alloc.No_extra strategy config inputs
  with Plan.Invalid_pattern msg -> Strategy.Infeasible { reason = msg }
