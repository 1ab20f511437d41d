open Lemur_placer
module Graph = Lemur_spec.Graph
module Topology = Lemur_topology.Topology
module Instance = Lemur_nf.Instance
module Kind = Lemur_nf.Kind
module Units = Lemur_util.Units
module Listx = Lemur_util.Listx

type violation =
  | Invalid_plan of { chain : string; reason : string }
  | Stage_overflow of { needed : int; budget : int }
  | Parser_conflict of { reason : string }
  | Stage_report_mismatch of { reported : int; recomputed : int }
  | Core_missing of { chain : string; subgroup : int }
  | Nonreplicable_replicated of { chain : string; subgroup : int; cores : int }
  | Segment_unassigned of { chain : string; segment : int }
  | Unknown_server of { chain : string; server : string }
  | Core_overallocation of { server : string; used : int; available : int }
  | Capacity_overstated of { chain : string; reported : float; derived : float }
  | Rate_above_capacity of { chain : string; rate : float; capacity : float }
  | Link_oversubscribed of { link : string; load : float; capacity : float }
  | Tmin_violated of { chain : string; rate : float; t_min : float }
  | Tmax_violated of { chain : string; rate : float; t_max : float }
  | Latency_violated of { chain : string; latency : float; d_max : float }
  | Totals_inconsistent of { what : string; reported : float; derived : float }
  | Routing_mismatch of { reason : string }

let kind_name = function
  | Invalid_plan _ -> "invalid_plan"
  | Stage_overflow _ -> "stage_overflow"
  | Parser_conflict _ -> "parser_conflict"
  | Stage_report_mismatch _ -> "stage_report_mismatch"
  | Core_missing _ -> "core_missing"
  | Nonreplicable_replicated _ -> "nonreplicable_replicated"
  | Segment_unassigned _ -> "segment_unassigned"
  | Unknown_server _ -> "unknown_server"
  | Core_overallocation _ -> "core_overallocation"
  | Capacity_overstated _ -> "capacity_overstated"
  | Rate_above_capacity _ -> "rate_above_capacity"
  | Link_oversubscribed _ -> "link_oversubscribed"
  | Tmin_violated _ -> "tmin_violated"
  | Tmax_violated _ -> "tmax_violated"
  | Latency_violated _ -> "latency_violated"
  | Totals_inconsistent _ -> "totals_inconsistent"
  | Routing_mismatch _ -> "routing_mismatch"

let pp_violation ppf = function
  | Invalid_plan { chain; reason } ->
      Fmt.pf ppf "invalid plan for %s: %s" chain reason
  | Stage_overflow { needed; budget } ->
      Fmt.pf ppf "switch stage overflow: needs %d stages, budget %d" needed budget
  | Parser_conflict { reason } -> Fmt.pf ppf "parser merge conflict: %s" reason
  | Stage_report_mismatch { reported; recomputed } ->
      Fmt.pf ppf "placement reports %d switch stages, compiler packs %d" reported
        recomputed
  | Core_missing { chain; subgroup } ->
      Fmt.pf ppf "%s subgroup %d has no core" chain subgroup
  | Nonreplicable_replicated { chain; subgroup; cores } ->
      Fmt.pf ppf "%s subgroup %d is non-replicable but runs on %d cores" chain
        subgroup cores
  | Segment_unassigned { chain; segment } ->
      Fmt.pf ppf "%s segment %d has no server" chain segment
  | Unknown_server { chain; server } ->
      Fmt.pf ppf "%s is assigned to unknown server %s" chain server
  | Core_overallocation { server; used; available } ->
      Fmt.pf ppf "server %s over-committed: %d cores used, %d available" server
        used available
  | Capacity_overstated { chain; reported; derived } ->
      Fmt.pf ppf "%s capacity overstated: reports %a, derivation gives %a" chain
        Units.pp_rate reported Units.pp_rate derived
  | Rate_above_capacity { chain; rate; capacity } ->
      Fmt.pf ppf "%s rate %a exceeds capacity %a" chain Units.pp_rate rate
        Units.pp_rate capacity
  | Link_oversubscribed { link; load; capacity } ->
      Fmt.pf ppf "link %s oversubscribed: %a offered, %a capacity" link
        Units.pp_rate load Units.pp_rate capacity
  | Tmin_violated { chain; rate; t_min } ->
      Fmt.pf ppf "%s rate %a below t_min %a" chain Units.pp_rate rate
        Units.pp_rate t_min
  | Tmax_violated { chain; rate; t_max } ->
      Fmt.pf ppf "%s rate %a above t_max %a" chain Units.pp_rate rate
        Units.pp_rate t_max
  | Latency_violated { chain; latency; d_max } ->
      Fmt.pf ppf "%s latency %.1f us exceeds d_max %.1f us" chain
        (latency /. 1e3) (d_max /. 1e3)
  | Totals_inconsistent { what; reported; derived } ->
      Fmt.pf ppf "placement %s inconsistent: reports %.6g, chain reports give %.6g"
        what reported derived
  | Routing_mismatch { reason } -> Fmt.pf ppf "artifact routing mismatch: %s" reason

(* Rates and loads go through floating point in different operation
   orders here and in the Placer, so comparisons allow a relative 1e-6
   plus an absolute 1 kbit/s — far below any real constraint violation. *)
let rate_tol b = Float.max 1e3 (1e-6 *. Float.abs b)
let rate_le a b = (a : float) <= b +. rate_tol b

let clock_of config =
  match config.Plan.topology.Topology.servers with
  | s :: _ -> s.Lemur_platform.Server.clock_hz
  | [] -> Units.ghz 1.7

let node_cycles config graph id =
  Plan.instance_cycles config (Graph.node graph id).Graph.instance

(* Share of the chain's traffic crossing a node: the sum of the
   fractions of the linear paths that contain it. *)
let node_fraction paths id =
  Listx.sum_by
    (fun p -> if List.mem id p.Graph.path_nodes then p.Graph.fraction else 0.0)
    paths

(* Independent subgroup throughput: profiled NF cycles plus the paper's
   measured framework overheads (§5.3) — NSH encap/decap at the subgroup
   boundary, and the demux load-balancing penalty when the subgroup is
   replicated (waived under Metron-style core tagging). *)
let subgroup_bps config ~cores cycles =
  let per_pkt =
    cycles +. Lemur_bess.Cost.nsh_overhead_cycles
    +.
    if cores > 1 && not config.Plan.metron_steering then
      Lemur_bess.Cost.multicore_lb_cycles
    else 0.0
  in
  if per_pkt <= 0.0 then infinity
  else
    let pps = float_of_int cores *. clock_of config /. per_pkt in
    Units.bps_of_pps ~pkt_bytes:config.Plan.pkt_bytes pps

(* min over subgroups of rate/fraction, and over SmartNIC NFs of their
   NIC rate over fraction (§3.2 "Estimated Throughput"). *)
let derived_capacity config (plan : Plan.plan) cores =
  let graph = plan.Plan.input.Plan.graph in
  let paths = Graph.linearize graph in
  let sg_cap =
    List.fold_left2
      (fun acc sg k ->
        let cycles = Listx.sum_by (node_cycles config graph) sg.Plan.sg_nodes in
        let frac = node_fraction paths (List.hd sg.Plan.sg_nodes) in
        if frac <= 0.0 then acc
        else Float.min acc (subgroup_bps config ~cores:k cycles /. frac))
      infinity plan.Plan.subgroups (Array.to_list cores)
  in
  let nic_cap =
    match config.Plan.topology.Topology.smartnics with
    | [] -> infinity
    | nic :: _ ->
        List.fold_left
          (fun acc id ->
            let kind = (Graph.node graph id).Graph.instance.Instance.kind in
            let rate =
              Lemur_platform.Smartnic.rate nic ~clock_hz:(clock_of config) ~kind
                ~cycles:(node_cycles config graph id)
                ~pkt_bytes:config.Plan.pkt_bytes
            in
            let frac = node_fraction paths id in
            if frac <= 0.0 then acc else Float.min acc (rate /. frac))
          infinity plan.Plan.smartnic_nodes
  in
  Float.min sg_cap nic_cap

(* Per-link traversals per delivered packet, re-derived by walking every
   linearized path the way the ToR forwards it: each maximal run of
   server-side hops (Server or SmartNIC) crosses its segment's server
   link once per direction; OpenFlow runs cross the OF switch link. *)
let derived_link_loads config (plan : Plan.plan) seg_server bump =
  let graph = plan.Plan.input.Plan.graph in
  let locs = plan.Plan.locs in
  let seg_of_node = Hashtbl.create 16 in
  List.iter
    (fun sg ->
      List.iter
        (fun id -> Hashtbl.replace seg_of_node id sg.Plan.sg_segment)
        sg.Plan.sg_nodes)
    plan.Plan.subgroups;
  let hop id =
    match locs.(id) with
    | Plan.Switch -> `Sw
    | Plan.Server | Plan.Smartnic -> `Srv
    | Plan.Ofswitch -> `Of
  in
  List.iter
    (fun p ->
      let groups =
        Listx.group_consecutive (fun a b -> hop a = hop b) p.Graph.path_nodes
      in
      List.iter
        (fun group ->
          match hop (List.hd group) with
          | `Sw -> ()
          | `Of -> (
              match config.Plan.topology.Topology.ofswitch with
              | Some sw ->
                  bump sw.Lemur_platform.Ofswitch.name p.Graph.fraction
              | None -> ())
          | `Srv -> (
              (* A run with a Server NF lands on that segment's assigned
                 server; a pure-SmartNIC run turns around at the NIC of
                 the NIC's host. *)
              let target =
                match
                  List.find_opt (fun id -> locs.(id) = Plan.Server) group
                with
                | Some sid ->
                    Option.bind
                      (Hashtbl.find_opt seg_of_node sid)
                      (fun seg -> List.assoc_opt seg seg_server)
                | None -> (
                    match config.Plan.topology.Topology.smartnics with
                    | nic :: _ -> Some nic.Lemur_platform.Smartnic.host
                    | [] -> None)
              in
              match target with
              | Some server -> bump server p.Graph.fraction
              | None -> ()))
        groups)
    (Graph.linearize graph)

(* Re-elaborate the pattern and insist the reported subgroup structure
   matches: the cores array is indexed by subgroup, so any disagreement
   makes every downstream number meaningless. *)
let reelaborate config (r : Strategy.chain_report) =
  let plan = r.Strategy.plan in
  let chain = plan.Plan.input.Plan.id in
  match Plan.elaborate config plan.Plan.input plan.Plan.locs with
  | exception Plan.Invalid_pattern reason ->
      Error (Invalid_plan { chain; reason })
  | fresh ->
      let structure p = List.map (fun sg -> sg.Plan.sg_nodes) p.Plan.subgroups in
      if structure fresh <> structure plan then
        Error
          (Invalid_plan
             { chain; reason = "subgroups disagree with re-elaboration" })
      else Ok fresh

let check ?artifact config (p : Strategy.placement) =
  let violations = ref [] in
  let report v = violations := v :: !violations in
  let topo = config.Plan.topology in
  let fresh_plans =
    List.map
      (fun r ->
        match reelaborate config r with
        | Ok fresh -> (r, Some fresh)
        | Error v ->
            report v;
            (r, None))
      p.Strategy.chain_reports
  in
  let checked =
    List.filter_map
      (fun (r, fresh) -> Option.map (fun f -> (r, f)) fresh)
      fresh_plans
  in
  (* Switch stages: rerun the compiler on the re-elaborated plans. *)
  (if checked <> [] && List.length checked = List.length p.Strategy.chain_reports
   then
     match Stagecheck.check config (List.map snd checked) with
     | Stagecheck.Overflow needed ->
         report
           (Stage_overflow
              { needed; budget = topo.Topology.tor.Lemur_platform.Pisa.stages })
     | Stagecheck.Conflict reason -> report (Parser_conflict { reason })
     | Stagecheck.Fits recomputed ->
         if recomputed <> p.Strategy.stages_used then
           report
             (Stage_report_mismatch
                { reported = p.Strategy.stages_used; recomputed }));
  (* Cores: every subgroup manned, replication legal, segments assigned
     to real servers, per-server ledger within the NF-core budget. *)
  let server_cores = Hashtbl.create 8 in
  List.iter
    (fun ((r : Strategy.chain_report), (fresh : Plan.plan)) ->
      let chain = fresh.Plan.input.Plan.id in
      if Array.length r.Strategy.cores <> List.length fresh.Plan.subgroups then
        report
          (Invalid_plan { chain; reason = "cores array / subgroup mismatch" })
      else begin
        List.iteri
          (fun i sg ->
            let k = r.Strategy.cores.(i) in
            if k < 1 then report (Core_missing { chain; subgroup = i })
            else if (not sg.Plan.sg_replicable) && k > 1 then
              report
                (Nonreplicable_replicated { chain; subgroup = i; cores = k }))
          fresh.Plan.subgroups;
        (* Segment -> server assignment, then charge the cores. *)
        let seg_target = Hashtbl.create 4 in
        List.iter
          (fun (seg, _) ->
            match List.assoc_opt seg r.Strategy.seg_server with
            | None -> report (Segment_unassigned { chain; segment = seg })
            | Some server ->
                if
                  not
                    (List.exists
                       (fun s -> s.Lemur_platform.Server.name = server)
                       topo.Topology.servers)
                then report (Unknown_server { chain; server })
                else Hashtbl.replace seg_target seg server)
          fresh.Plan.segment_fractions;
        List.iteri
          (fun i sg ->
            match Hashtbl.find_opt seg_target sg.Plan.sg_segment with
            | None -> ()
            | Some server ->
                let k = r.Strategy.cores.(i) in
                Hashtbl.replace server_cores server
                  (k
                  + Option.value
                      (Hashtbl.find_opt server_cores server)
                      ~default:0))
          fresh.Plan.subgroups
      end)
    checked;
  List.iter
    (fun s ->
      let name = s.Lemur_platform.Server.name in
      let used = Option.value (Hashtbl.find_opt server_cores name) ~default:0 in
      let available = Lemur_platform.Server.nf_cores s in
      if used > available then
        report (Core_overallocation { server = name; used; available }))
    topo.Topology.servers;
  (* Capacity, rate and SLO constraints, chain by chain. *)
  let port_cap = topo.Topology.tor.Lemur_platform.Pisa.port_capacity in
  List.iter
    (fun ((r : Strategy.chain_report), (fresh : Plan.plan)) ->
      let chain = fresh.Plan.input.Plan.id in
      if Array.length r.Strategy.cores = List.length fresh.Plan.subgroups then begin
        let derived = derived_capacity config fresh r.Strategy.cores in
        if
          Float.is_finite derived
          && not (rate_le r.Strategy.capacity derived)
        then
          report
            (Capacity_overstated { chain; reported = r.Strategy.capacity; derived });
        let cap = Float.min derived port_cap in
        if not (rate_le r.Strategy.rate cap) then
          report (Rate_above_capacity { chain; rate = r.Strategy.rate; capacity = cap })
      end;
      let slo = fresh.Plan.input.Plan.slo in
      if not (rate_le slo.Lemur_slo.Slo.t_min r.Strategy.rate) then
        report
          (Tmin_violated
             { chain; rate = r.Strategy.rate; t_min = slo.Lemur_slo.Slo.t_min });
      if not (rate_le r.Strategy.rate slo.Lemur_slo.Slo.t_max) then
        report
          (Tmax_violated
             { chain; rate = r.Strategy.rate; t_max = slo.Lemur_slo.Slo.t_max });
      let latency = Plan.latency fresh in
      if latency > slo.Lemur_slo.Slo.d_max *. (1.0 +. 1e-9) then
        report
          (Latency_violated { chain; latency; d_max = slo.Lemur_slo.Slo.d_max }))
    checked;
  (* Shared links: sum each chain's rate times its re-derived per-link
     traversal count against the link's per-direction capacity. *)
  let link_totals = Hashtbl.create 8 in
  List.iter
    (fun ((r : Strategy.chain_report), (fresh : Plan.plan)) ->
      derived_link_loads config fresh r.Strategy.seg_server (fun link frac ->
          if frac > 0.0 then
            Hashtbl.replace link_totals link
              ((r.Strategy.rate *. frac)
              +. Option.value (Hashtbl.find_opt link_totals link) ~default:0.0)))
    checked;
  Hashtbl.iter
    (fun link load ->
      match Topology.link_capacity topo link with
      | capacity ->
          if not (rate_le load capacity) then
            report (Link_oversubscribed { link; load; capacity })
      | exception Not_found -> ()
      (* unknown server already reported above *))
    link_totals;
  (* Aggregates must restate the chain reports. *)
  let sum f = Listx.sum_by f p.Strategy.chain_reports in
  let derived_rate = sum (fun r -> r.Strategy.rate) in
  if Float.abs (derived_rate -. p.Strategy.total_rate) > rate_tol derived_rate
  then
    report
      (Totals_inconsistent
         { what = "total_rate"; reported = p.Strategy.total_rate; derived = derived_rate });
  let derived_marginal =
    sum (fun r ->
        Float.max 0.0
          (r.Strategy.rate -. r.Strategy.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_min))
  in
  if
    Float.abs (derived_marginal -. p.Strategy.total_marginal)
    > rate_tol derived_marginal
  then
    report
      (Totals_inconsistent
         {
           what = "total_marginal";
           reported = p.Strategy.total_marginal;
           derived = derived_marginal;
         });
  let derived_cores =
    List.fold_left
      (fun acc r -> acc + Array.fold_left ( + ) 0 r.Strategy.cores)
      0 p.Strategy.chain_reports
  in
  if derived_cores <> p.Strategy.cores_used then
    report
      (Totals_inconsistent
         {
           what = "cores_used";
           reported = float_of_int p.Strategy.cores_used;
           derived = float_of_int derived_cores;
         });
  (* Close the loop on the meta-compiler when the artifact is at hand. *)
  (match artifact with
  | None -> ()
  | Some art -> (
      match Lemur_codegen.Routing_check.verify p art with
      | Ok () -> ()
      | Error reason -> report (Routing_mismatch { reason })));
  match List.rev !violations with [] -> Ok () | vs -> Error vs

let check_deployment (d : Lemur.Deployment.t) =
  check d.Lemur.Deployment.config d.Lemur.Deployment.placement
