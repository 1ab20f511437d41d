open Lemur_spec

type t =
  | Lemur
  | Optimal
  | Hw_preferred
  | Sw_preferred
  | Min_bounce
  | Greedy
  | No_profiling
  | No_core_alloc

let all =
  [ Lemur; Optimal; Hw_preferred; Sw_preferred; Min_bounce; Greedy; No_profiling; No_core_alloc ]

let name = function
  | Lemur -> "Lemur"
  | Optimal -> "Optimal"
  | Hw_preferred -> "HW Preferred"
  | Sw_preferred -> "SW Preferred"
  | Min_bounce -> "Min Bounce"
  | Greedy -> "Greedy"
  | No_profiling -> "No Profiling"
  | No_core_alloc -> "No Core Alloc"

type chain_report = {
  plan : Plan.plan;
  cores : int array;
  seg_server : (int * string) list;
  capacity : float;
  rate : float;
  latency : float;
  bounces : int;
}

type placement = {
  strategy : t;
  chain_reports : chain_report list;
  total_rate : float;
  total_marginal : float;
  stages_used : int;
  cores_used : int;
  elapsed : float;
}

type outcome = Placed of placement | Infeasible of { reason : string }

let is_feasible = function Placed _ -> true | Infeasible _ -> false

(* ------------------------------------------------------------------ *)
(* Pattern construction                                                 *)

let preference_order = function
  | `Hw -> [ Plan.Switch; Plan.Smartnic; Plan.Ofswitch; Plan.Server ]
  | `Sw -> [ Plan.Server; Plan.Switch; Plan.Smartnic; Plan.Ofswitch ]

let pattern_by_preference config input pref =
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
      let choice =
        match List.find_opt (fun l -> List.mem l allowed) (preference_order pref) with
        | Some l -> l
        | None -> List.hd allowed
      in
      locs.(node.Graph.id) <- choice)
    (Graph.nodes graph);
  locs

let all_patterns config input ~limit =
  let graph = input.Plan.graph in
  let choices =
    List.map
      (fun node ->
        match Plan.allowed_locations config node.Graph.instance with
        | [] ->
            raise
              (Plan.Invalid_pattern
                 (Printf.sprintf "%s has no feasible platform"
                    node.Graph.instance.Lemur_nf.Instance.name))
        | locs -> locs)
      (Graph.nodes graph)
  in
  let count = List.fold_left (fun acc c -> acc * List.length c) 1 choices in
  if count > limit then begin
    (* Fall back to the hardware- and software-preferred corners,
       single-NF flips of the hardware corner, and an eviction ladder
       (hardware corner with the k cheapest movable NFs pushed to the
       server — the shapes stage overflow forces). *)
    let base = pattern_by_preference config input `Hw in
    let sw = pattern_by_preference config input `Sw in
    let flips =
      List.concat
        (List.mapi
           (fun i c ->
             List.filter_map
               (fun loc ->
                 if loc = base.(i) then None
                 else begin
                   let v = Array.copy base in
                   v.(i) <- loc;
                   Some v
                 end)
               c)
           choices)
    in
    let movable =
      List.filter_map
        (fun n ->
          if
            base.(n.Graph.id) <> Plan.Server
            && List.mem Plan.Server
                 (Plan.allowed_locations config n.Graph.instance)
          then
            Some (n.Graph.id, Plan.instance_cycles config n.Graph.instance)
          else None)
        (Graph.nodes input.Plan.graph)
      |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
    in
    let ladder =
      let v = Array.copy base in
      List.map
        (fun (id, _) ->
          v.(id) <- Plan.Server;
          Array.copy v)
        movable
    in
    Lemur_util.Listx.uniq ( = ) ((base :: sw :: flips) @ ladder)
  end
  else List.map Array.of_list (Lemur_util.Listx.cartesian choices)

(* ------------------------------------------------------------------ *)
(* Assembling outcomes                                                  *)

let build_placement strategy config allocs lp stages =
  let reports =
    List.map
      (fun (a : Alloc.chain_alloc) ->
        let rate =
          Option.value
            (List.assoc_opt a.Alloc.plan.Plan.input.Plan.id lp.Ratelp.rates)
            ~default:0.0
        in
        {
          plan = a.Alloc.plan;
          cores = a.Alloc.sg_cores;
          seg_server = a.Alloc.seg_server;
          capacity = Alloc.capacity_of config a;
          rate;
          latency = Plan.latency a.Alloc.plan;
          bounces = a.Alloc.plan.Plan.max_path_bounces;
        })
      allocs
  in
  {
    strategy;
    chain_reports = reports;
    total_rate = lp.Ratelp.total_rate;
    total_marginal = lp.Ratelp.total_marginal;
    stages_used = stages;
    cores_used = List.fold_left (fun acc a -> acc + Alloc.cores_used a) 0 allocs;
    elapsed = 0.0;
  }

let check_latency plans =
  match List.find_opt (fun p -> not (Plan.meets_latency p)) plans with
  | Some p ->
      Error
        (Printf.sprintf "chain %s exceeds its latency SLO (%.1f us > %.1f us)"
           p.Plan.input.Plan.id
           (Lemur_util.Units.to_us (Plan.latency p))
           (Lemur_util.Units.to_us p.Plan.input.Plan.slo.Lemur_slo.Slo.d_max))
  | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* Domain-local placer state: the variant cache (below) and the stage
   verdict table. Both are dropped together by [clear_variant_cache], so
   a cold placement is cold in both. *)

let vc_hits = Atomic.make 0
let vc_misses = Atomic.make 0
let vc_max_entries = 16
let vc_max_verdicts = 1024

type vc_state = {
  mutable vc_entries : (string * Plan.plan list list) list;
      (* MRU assoc: key -> per-variant list of per-chain plans *)
  vc_verdicts : (Digest.t, Stagecheck.verdict) Hashtbl.t;
      (* switch-projection key -> compiler verdict; reset when full *)
}

let vc_key : vc_state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { vc_entries = []; vc_verdicts = Hashtbl.create 64 })

let variant_cache_stats () = (Atomic.get vc_hits, Atomic.get vc_misses)

let clear_variant_cache () =
  let st = Domain.DLS.get vc_key in
  st.vc_entries <- [];
  Hashtbl.reset st.vc_verdicts

(* The compiler-in-the-loop check, compiled once per switch projection.
   A plan's projection is a function of its chain id, graph and
   locations — exactly [Memo.plan_sig] — and the compiler reads only the
   ToR's PISA parameters, which [Memo.config_sig] covers; so the verdict
   is stored under a digest of those signatures in list order. The
   placer's variants, spare-core policies and ranking walk re-check the
   same switch sets many times over; [Stagecheck.check] itself stays
   uncached, so the oracle always compiles afresh. *)
let stage_verdict config plans =
  let tm = Lemur_telemetry.Telemetry.current () in
  let st = Domain.DLS.get vc_key in
  let key =
    Digest.string
      (String.concat ";" (Memo.config_sig config :: List.map Memo.plan_sig plans))
  in
  match Hashtbl.find_opt st.vc_verdicts key with
  | Some verdict ->
      Lemur_telemetry.Counter.incr
        (Lemur_telemetry.Telemetry.counter tm "placer.stageverdict.hits");
      verdict
  | None ->
      Lemur_telemetry.Counter.incr
        (Lemur_telemetry.Telemetry.counter tm "placer.stageverdict.misses");
      let verdict = Stagecheck.check config plans in
      if Hashtbl.length st.vc_verdicts >= vc_max_verdicts then
        Hashtbl.reset st.vc_verdicts;
      Hashtbl.add st.vc_verdicts key verdict;
      verdict

(* Rate LP, stage check and placement for one allocation of [plans]. *)
let outcome_of strategy config plans allocs =
  match Alloc.evaluate config allocs with
  | None -> Infeasible { reason = "rate LP infeasible (SLOs unsatisfiable)" }
  | Some lp -> (
      match stage_verdict config plans with
      | Stagecheck.Overflow n ->
          Infeasible { reason = Printf.sprintf "switch stages exceeded (%d needed)" n }
      | Stagecheck.Conflict msg -> Infeasible { reason = "parser conflict: " ^ msg }
      | Stagecheck.Fits stages ->
          Placed (build_placement strategy config allocs lp stages))

(* Step 3 for one set of plans: the latency check once, then core
   allocation and [outcome_of] under each spare-core policy. A policy
   whose allocation (every chain's cores and servers) repeats an earlier
   one's would repeat its outcome, so it is skipped. *)
let finalize strategy config policies plans =
  let tm = Lemur_telemetry.Telemetry.current () in
  Lemur_telemetry.Telemetry.with_span tm "placer.finalize" @@ fun () ->
  match check_latency plans with
  | Error reason -> [ Infeasible { reason } ]
  | Ok () ->
      let seen = ref [] in
      List.filter_map
        (fun policy ->
          match Alloc.allocate config policy plans with
          | None -> Some (Infeasible { reason = "not enough server cores" })
          | Some allocs ->
              let key = List.map (fun a -> (a.Alloc.sg_cores, a.Alloc.seg_server)) allocs in
              if List.mem key !seen then (
                Lemur_telemetry.Counter.incr
                  (Lemur_telemetry.Telemetry.counter tm "placer.finalize.skipped");
                None)
              else (
                seen := key :: !seen;
                Some (outcome_of strategy config plans allocs)))
        policies

(* ------------------------------------------------------------------ *)
(* Lemur heuristic                                                      *)

(* Step 1: greedy switch placement, evicting the cheapest movable NF
   until the unified pipeline compiles. *)
let evict_to_fit config plans =
  let tm = Lemur_telemetry.Telemetry.current () in
  Lemur_telemetry.Telemetry.with_span tm "placer.evict_to_fit" @@ fun () ->
  let evictions = Lemur_telemetry.Telemetry.counter tm "placer.evict.evictions" in
  let rec go plans =
    match stage_verdict config plans with
    | Stagecheck.Fits _ -> Some plans
    | Stagecheck.Conflict _ | Stagecheck.Overflow _ -> (
        let candidates =
          List.concat_map
            (fun plan ->
              List.map
                (fun (id, cost) -> (plan, id, cost))
                (Stagecheck.movable_switch_nodes config plan))
            plans
        in
        match Lemur_util.Listx.min_by (fun (_, _, c) -> c) candidates with
        | None -> None
        | Some (victim_plan, id, _) ->
            Lemur_telemetry.Counter.incr evictions;
            let plans =
              List.map
                (fun plan ->
                  if plan == victim_plan then begin
                    let locs = Array.copy plan.Plan.locs in
                    locs.(id) <- Plan.Server;
                    Plan.elaborate config plan.Plan.input locs
                  end
                  else plan)
                plans
            in
            go plans)
  in
  go plans

(* Step 2: coalescing. Moving a switch NF with server neighbours on both
   sides to the server merges its two neighbouring subgroups. *)
type coalesce_variant = Baseline | Aggressive | Conservative

let coalesce_candidates plan =
  let graph = plan.Plan.input.Plan.graph in
  List.filter_map
    (fun node ->
      let id = node.Graph.id in
      if plan.Plan.locs.(id) <> Plan.Switch then None
      else
        let preds = Graph.predecessors graph id in
        let succs = Graph.successors graph id in
        let server_side edges pick =
          List.exists (fun e -> plan.Plan.locs.(pick e) = Plan.Server) edges
        in
        if
          server_side preds (fun e -> e.Graph.src)
          && server_side succs (fun e -> e.Graph.dst)
        then Some id
        else None)
    (Graph.nodes graph)

(* A switch NF sandwiched between SmartNIC neighbours splits what could
   be a single NIC stint into two host-link visits; folding it onto the
   NIC halves the chain's load on the shared host link. *)
let nic_coalesce_candidates plan =
  let graph = plan.Plan.input.Plan.graph in
  List.filter_map
    (fun node ->
      let id = node.Graph.id in
      if plan.Plan.locs.(id) <> Plan.Switch then None
      else
        let preds = Graph.predecessors graph id in
        let succs = Graph.successors graph id in
        let nic_side edges pick =
          List.exists (fun e -> plan.Plan.locs.(pick e) = Plan.Smartnic) edges
        in
        if
          nic_side preds (fun e -> e.Graph.src)
          && nic_side succs (fun e -> e.Graph.dst)
        then Some id
        else None)
    (Graph.nodes graph)

let merged_subgroup_index plan_after id =
  Lemur_util.Listx.index_of
    (fun sg -> List.mem id sg.Plan.sg_nodes)
    plan_after.Plan.subgroups

let chain_capacity_ones config plan =
  Plan.capacity config plan
    ~cores:(List.map (fun _ -> 1) plan.Plan.subgroups)

let chain_capacity_two_on config plan sg_index =
  Plan.capacity config plan
    ~cores:
      (List.mapi
         (fun i sg ->
           if i = sg_index && sg.Plan.sg_replicable then 2 else 1)
         plan.Plan.subgroups)

let max_capacity config plan =
  (* Capacity if every replicable subgroup got the whole machine —
     an optimistic bound used by aggressive coalescing's SLO test. *)
  let total = Lemur_topology.Topology.total_nf_cores config.Plan.topology in
  Plan.capacity config plan
    ~cores:
      (List.map
         (fun sg -> if sg.Plan.sg_replicable then max 1 total else 1)
         plan.Plan.subgroups)

let apply_coalescing config variant plan =
  match variant with
  | Baseline -> plan
  | Aggressive | Conservative ->
      let allowed_at loc plan id =
        List.mem loc
          (Plan.allowed_locations config
             (Graph.node plan.Plan.input.Plan.graph id).Graph.instance)
      in
      let fire plan after_cap before_cap =
        let strict = after_cap > before_cap +. 1.0 in
        let conservative = after_cap >= before_cap -. 1.0 in
        match variant with
        | Baseline -> false
        | Aggressive ->
            strict
            || max_capacity config plan
               >= plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_min
        | Conservative -> strict || conservative
      in
      let rec go plan =
        let movable_ids =
          List.filter (allowed_at Plan.Server plan) (coalesce_candidates plan)
        in
        let try_move id =
          let locs = Array.copy plan.Plan.locs in
          locs.(id) <- Plan.Server;
          let after = Plan.elaborate config plan.Plan.input locs in
          let before_cap = chain_capacity_ones config plan in
          match merged_subgroup_index after id with
          | None -> None
          | Some sg_index ->
              let after_cap = chain_capacity_two_on config after sg_index in
              if fire after after_cap before_cap then Some after else None
        in
        let nic_movable_ids =
          List.filter (allowed_at Plan.Smartnic plan)
            (nic_coalesce_candidates plan)
        in
        let try_nic_move id =
          let locs = Array.copy plan.Plan.locs in
          locs.(id) <- Plan.Smartnic;
          let after = Plan.elaborate config plan.Plan.input locs in
          let before_cap = chain_capacity_ones config plan in
          let after_cap = chain_capacity_ones config after in
          if fire after after_cap before_cap then Some after else None
        in
        match
          match List.find_map try_move movable_ids with
          | Some after -> Some after
          | None -> List.find_map try_nic_move nic_movable_ids
        with
        | Some after -> go after
        | None -> plan
      in
      go plan

(* Fewest ToR bounces, hardware-richest on ties — the Min Bounce
   baseline's pattern rule, also used to seed one of Lemur's variants.
   Both score terms read off the location array, and an enumerated
   pattern only ever places NFs where [allowed_locations] lets them, so
   the OpenFlow table order is the one way [Plan.elaborate] could
   reject it: patterns are filtered and scored without elaborating, and
   only the winner is elaborated. *)
let min_bounce_pattern config input =
  let graph = input.Plan.graph in
  let paths = Graph.linearize graph in
  let hw_count locs =
    Array.fold_left
      (fun acc loc -> if loc <> Plan.Server then acc + 1 else acc)
      0 locs
  in
  all_patterns config input ~limit:4096
  |> List.filter (fun locs -> Plan.of_order_compatible config graph locs paths)
  |> Lemur_util.Listx.min_by (fun locs ->
         (float_of_int (Plan.max_path_bounces locs paths) *. 1000.0)
         -. float_of_int (hw_count locs))
  |> Option.map (Plan.elaborate config input)

(* ------------------------------------------------------------------ *)
(* The variant cache: the placer's one result cache, and incremental
   re-placement's warm start.

   [lemur_variants] — greedy pattern, eviction, coalescing walks, and
   the bounce-variant enumeration — is a deterministic function of
   exactly (config content, per-chain graph content, per-chain t_min):
   t_max and d_max are only read downstream, in [finalize]. So the
   elaborated variant plans are cached under a structural digest of
   those three. Elaborated structure, latency included, never depends
   on the SLO, so a hit re-binds each stored plan's [input] to the
   caller's {e current} input (and hands out a fresh locs array) —
   byte-identical to recomputation, which is what lets the runtime
   engine skip the whole pattern search when a dynamics event only
   moved demand (t_max) or the latency bound (d_max). Chains whose
   graph or t_min did change alter the key, so the dirty set
   invalidates exactly itself. Entries live in the domain-local state
   above; the hit/miss totals are process-wide. *)

let variant_key config inputs =
  String.concat ";"
    (Memo.config_sig config
    :: List.map
         (fun (i : Plan.chain_input) ->
           Printf.sprintf "%s~%h" (Memo.chain_sig i)
             i.Plan.slo.Lemur_slo.Slo.t_min)
         inputs)

let lemur_variants_compute config inputs =
  let base_plans =
    List.map
      (fun input ->
        Plan.elaborate config input (pattern_by_preference config input `Hw))
      inputs
  in
  match evict_to_fit config base_plans with
  | None -> None
  | Some baseline ->
      (* The hardware-greedy basin is not always the right one: when
         accelerators are slow for the workload (small packets, shared
         NIC) an all-software placement can dominate every coalescing of
         the hardware corner, so seed a software-preferred variant too
         and let the LP objective arbitrate. *)
      let seeded mk =
        match List.map mk inputs with
        | plans -> (
            match evict_to_fit config plans with
            | Some plans -> [ plans ]
            | None -> [])
        | exception Plan.Invalid_pattern _ -> []
      in
      let sw_variant =
        seeded (fun input ->
            Plan.elaborate config input (pattern_by_preference config input `Sw))
      in
      (* Bounce-light patterns sit in yet another basin: capacity-driven
         coalescing never trades switch capacity for fewer traversals of
         the shared server links, but the rate LP often should. *)
      let bounce_variant =
        seeded (fun input ->
            match min_bounce_pattern config input with
            | Some plan -> plan
            | None -> raise (Plan.Invalid_pattern "no bounce-light pattern"))
      in
      (* A walk that moves nothing, or a seed that lands in the same
         basin, repeats a variant: equal locations elaborate to equal
         plans, so only the first is kept. *)
      Some
        (Lemur_util.Listx.uniq
           (List.for_all2 (fun p q -> p.Plan.locs = q.Plan.locs))
           ([
              List.map (apply_coalescing config Baseline) baseline;
              List.map (apply_coalescing config Aggressive) baseline;
              List.map (apply_coalescing config Conservative) baseline;
            ]
           @ sw_variant @ bounce_variant))

let lemur_variants config inputs =
  let tm = Lemur_telemetry.Telemetry.current () in
  let key = variant_key config inputs in
  let st = Domain.DLS.get vc_key in
  let rebind input p = { p with Plan.input; locs = Array.copy p.Plan.locs } in
  match List.assoc_opt key st.vc_entries with
  | Some stored ->
      Atomic.incr vc_hits;
      Lemur_telemetry.Counter.incr
        (Lemur_telemetry.Telemetry.counter tm "placer.varcache.hits");
      st.vc_entries <- (key, stored) :: List.remove_assoc key st.vc_entries;
      Some (List.map (List.map2 rebind inputs) stored)
  | None -> (
      Atomic.incr vc_misses;
      Lemur_telemetry.Counter.incr
        (Lemur_telemetry.Telemetry.counter tm "placer.varcache.misses");
      match lemur_variants_compute config inputs with
      | None -> None
      | Some variants ->
          st.vc_entries <-
            (key, List.map (List.map2 rebind inputs) variants)
            :: Lemur_util.Listx.take (vc_max_entries - 1) st.vc_entries;
          Some variants)

(* Step 3 over candidate plan sets: [finalize] on each distinct variant
   under every spare-core policy, or under [policy] alone when one is
   forced (ablations force one). The best feasible outcome by marginal
   wins, the first in sweep order on ties; with none feasible, the first
   outcome surfaces its reason. A skipped policy would only have tied an
   earlier outcome, so the skipping changes neither choice. *)
let best_allocation ?policy strategy config variants =
  let policies =
    match policy with
    | Some p -> [ p ]
    | None -> [ Alloc.Slo_driven; Alloc.By_index; Alloc.Even ]
  in
  let outcomes =
    List.concat_map
      (fun plans -> finalize strategy config policies plans)
      variants
  in
  let best =
    Lemur_util.Listx.max_by
      (function Placed p -> p.total_marginal | Infeasible _ -> neg_infinity)
      (List.filter is_feasible outcomes)
  in
  match best with
  | Some o -> o
  | None -> (
      match outcomes with
      | o :: _ -> o (* surface the baseline's reason *)
      | [] -> Infeasible { reason = "no variants" })

let lemur_placement ?policy strategy config inputs =
  match lemur_variants config inputs with
  | None -> Infeasible { reason = "no switch-feasible placement exists" }
  | Some variants -> best_allocation ?policy strategy config variants

(* [elapsed] covers the whole computation, every candidate included. *)
let timed f =
  let start = Lemur_util.Timing.now () in
  match f () with
  | Placed p -> Placed { p with elapsed = Lemur_util.Timing.elapsed start }
  | Infeasible _ as i -> i

let evaluate_plans ?policy strategy config plans =
  timed (fun () -> best_allocation ?policy strategy config [ plans ])

(* ------------------------------------------------------------------ *)
(* Brute-force Optimal                                                  *)

type opt_config = {
  oc_plan : Plan.plan;
  oc_cores : int array;
  oc_k : int;
  oc_capacity : float;
  oc_tables : int;
  oc_visits : float;
  oc_of_visits : float;
}

let switch_table_count plan =
  List.fold_left
    (fun acc node ->
      if plan.Plan.locs.(node.Graph.id) = Plan.Switch then
        acc + Lemur_nf.Datasheet.p4_table_count node.Graph.instance.Lemur_nf.Instance.kind
      else acc)
    0
    (Graph.nodes plan.Plan.input.Plan.graph)

(* Water-filling: best capacity for a fixed plan and total core count —
   repeatedly grow the capacity-binding subgroup. Stops early when the
   binding subgroup cannot replicate (more cores would be wasted). *)
let water_fill config plan k =
  let n = List.length plan.Plan.subgroups in
  let sgs = Array.of_list plan.Plan.subgroups in
  let cores = Array.make n 1 in
  let clock =
    match config.Plan.topology.Lemur_topology.Topology.servers with
    | s :: _ -> s.Lemur_platform.Server.clock_hz
    | [] -> Lemur_util.Units.ghz 1.7
  in
  (* A segment (and every subgroup in it) must land on a single server,
     so its total core count can never exceed the largest server. Without
     this bound, phantom configurations — one fat subgroup holding the
     whole rack's cores — dominate-prune the packable split variants and
     then fail server assignment. *)
  let seg_budget =
    List.fold_left
      (fun acc s -> max acc (Lemur_platform.Server.nf_cores s))
      1 config.Plan.topology.Lemur_topology.Topology.servers
  in
  let seg_total seg =
    let t = ref 0 in
    Array.iteri
      (fun i sg -> if sg.Plan.sg_segment = seg then t := !t + cores.(i))
      sgs;
    !t
  in
  let capacity i sg =
    if sg.Plan.sg_fraction <= 0.0 then infinity
    else
      Lemur_bess.Cost.subgroup_rate ~core_tagging:config.Plan.metron_steering
        ~clock_hz:clock ~cores:cores.(i) ~pkt_bytes:config.Plan.pkt_bytes
        ~nf_cycles:[ sg.Plan.sg_cycles ] ()
      /. sg.Plan.sg_fraction
  in
  let spare = ref (k - n) in
  let continue = ref true in
  while !spare > 0 && !continue do
    let scored = List.mapi (fun i sg -> (i, sg, capacity i sg)) plan.Plan.subgroups in
    match Lemur_util.Listx.min_by (fun (_, _, cap) -> cap) scored with
    | None -> continue := false
    | Some (i, binding_sg, cap)
      when cap = infinity
           || (not binding_sg.Plan.sg_replicable)
           || seg_total binding_sg.Plan.sg_segment >= seg_budget ->
        (* all-hardware, pinned, or server-bound bottleneck: extra cores
           anywhere else cannot lift the binding capacity *)
        ignore i;
        continue := false
    | Some (i, _, _) ->
        cores.(i) <- cores.(i) + 1;
        decr spare
  done;
  cores

let chain_configs config input ~pattern_limit ~core_budget =
  let patterns = all_patterns config input ~limit:pattern_limit in
  let plans =
    List.filter_map
      (fun locs ->
        match Plan.elaborate config input locs with
        | plan -> if Plan.meets_latency plan then Some plan else None
        | exception Plan.Invalid_pattern _ -> None)
      patterns
  in
  let configs =
    List.concat_map
      (fun plan ->
        let n = List.length plan.Plan.subgroups in
        let ks = List.init (max 1 (core_budget - n + 1)) (fun i -> n + i) in
        let tables = switch_table_count plan in
        List.filter_map
          (fun k ->
            if k < n then None
            else
              let cores = water_fill config plan k in
              let used = Array.fold_left ( + ) 0 cores in
              if used < k then None (* water-fill saturated below k *)
              else
                (* Capacity above t_max is unusable; clamping makes the
                   dominance pruning prefer cheaper switch footprints
                   among equally useful configurations. *)
                let cap =
                  Float.min
                    (Plan.capacity config plan ~cores:(Array.to_list cores))
                    input.Plan.slo.Lemur_slo.Slo.t_max
                in
                Some
                  {
                    oc_plan = plan;
                    oc_cores = cores;
                    oc_k = used;
                    oc_capacity = cap;
                    oc_tables = tables;
                    oc_visits = plan.Plan.link_visits;
                    oc_of_visits = plan.Plan.of_visits;
                  })
          ks)
      plans
  in
  (* Pareto prune: drop configs dominated on (cores, tables, capacity,
     visits). *)
  let dominates a b =
    a.oc_k <= b.oc_k && a.oc_tables <= b.oc_tables
    && a.oc_capacity >= b.oc_capacity -. 1.0
    && a.oc_visits <= b.oc_visits +. 1e-9
    (* OF-switch link traversals are a shared resource too: a config
       that saves switch tables by moving NFs onto the OpenFlow switch
       is NOT a free win — it loads the shared OF link — so it must not
       prune configurations that are lighter there. *)
    && a.oc_of_visits <= b.oc_of_visits +. 1e-9
    && (a.oc_k < b.oc_k || a.oc_tables < b.oc_tables
       || a.oc_capacity > b.oc_capacity +. 1.0)
  in
  let front =
    List.filter
      (fun c -> not (List.exists (fun d -> d != c && dominates d c) configs))
      configs
  in
  (* Bound the joint product while keeping diversity along the shared
     resources: for each distinct (core count, server-link traversal,
     OF-link traversal) bucket, retain the few best configurations —
     collapsing across link usage would let high-capacity SmartNIC- or
     OF-heavy placements crowd out the link-light variants the joint LP
     needs when a shared link is contended. *)
  let by_k = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let key =
        ( c.oc_k,
          int_of_float (Float.round (c.oc_visits *. 4.0)),
          int_of_float (Float.round (c.oc_of_visits *. 4.0)) )
      in
      let existing = Option.value (Hashtbl.find_opt by_k key) ~default:[] in
      Hashtbl.replace by_k key (c :: existing))
    front;
  Hashtbl.fold
    (fun _ cs acc ->
      (List.sort
         (fun a b ->
           (* best capacity first; among ties prefer lighter switch
              footprints (they survive the joint stage check) *)
           match Float.compare b.oc_capacity a.oc_capacity with
           | 0 -> compare a.oc_tables b.oc_tables
           | c -> c)
         cs
      |> Lemur_util.Listx.take 3)
      @ acc)
    by_k []

let optimal_placement config inputs =
  let core_budget = Lemur_topology.Topology.total_nf_cores config.Plan.topology in
  let per_chain =
    List.map
      (fun input ->
        chain_configs config input ~pattern_limit:4096 ~core_budget)
      inputs
  in
  if List.exists (fun cs -> cs = []) per_chain then
    Infeasible { reason = "a chain has no latency-feasible pattern" }
  else begin
    (* Enumerate joint combinations within the core budget. *)
    let combos = ref [] in
    let rec enum chosen remaining budget =
      match remaining with
      | [] -> combos := List.rev chosen :: !combos
      | configs :: rest ->
          List.iter
            (fun c ->
              if c.oc_k <= budget then enum (c :: chosen) rest (budget - c.oc_k))
            configs
    in
    enum [] per_chain core_budget;
    (* Evaluate the LP for each combination, rank by objective. The
       evaluations are independent and pure given [config], so they go
       through [Pool.map] at the session default; only a one-scenario
       [lemur fuzz -j N] batch runs them on more than one domain. Results
       come back merged by index, so the ranking below sees them in
       enumeration order and the chosen placement is identical to a
       sequential run. A combination whose evaluation raises is skipped
       and counted, never fatal. *)
    let evaluated =
      Lemur_util.Pool.map
        (fun combo ->
          match
            Alloc.assign_only config
              (List.map (fun c -> (c.oc_plan, c.oc_cores)) combo)
          with
          | None -> None
          | Some allocs -> (
              match Alloc.evaluate config allocs with
              | None -> None
              | Some lp -> Some (lp.Ratelp.total_marginal, combo, allocs, lp)))
        !combos
    in
    let scored =
      List.filter_map
        (function
          | Ok r -> r
          | Error (_ : Lemur_util.Pool.job_error) ->
              Lemur_telemetry.Counter.incr
                (Lemur_telemetry.Telemetry.counter
                   (Lemur_telemetry.Telemetry.current ())
                   "placer.optimal.eval_errors");
              None)
        evaluated
    in
    let ranked =
      List.sort (fun (a, _, _, _) (b, _, _, _) -> Float.compare b a) scored
    in
    (* Walk down the ranking; the first placement the compiler fits wins. *)
    let rec walk = function
      | [] -> Infeasible { reason = "no ranked placement fits the switch" }
      | (_, combo, allocs, lp) :: rest -> (
          let plans = List.map (fun c -> c.oc_plan) combo in
          match stage_verdict config plans with
          | Stagecheck.Fits stages ->
              Placed (build_placement Optimal config allocs lp stages)
          | Stagecheck.Overflow _ | Stagecheck.Conflict _ -> walk rest)
    in
    if ranked = [] then Infeasible { reason = "SLOs unsatisfiable in any enumerated placement" }
    else walk ranked
  end

(* ------------------------------------------------------------------ *)
(* Minimum Bounce                                                       *)

let min_bounce_placement config inputs =
  let plans = List.map (min_bounce_pattern config) inputs in
  if List.exists Option.is_none plans then
    Infeasible { reason = "a chain has no valid pattern" }
  else
    best_allocation ~policy:Alloc.Slo_driven Min_bounce config
      [ List.filter_map Fun.id plans ]

(* ------------------------------------------------------------------ *)
(* Ablation: decisions under a uniform profile, judged under the truth  *)

let reevaluate_with_truth strategy config placement =
  (* Rebuild plans and capacities with the true profiler but keep the
     ablated decisions (locations, cores, servers). *)
  let allocs =
    List.map
      (fun r ->
        let plan = Plan.elaborate config r.plan.Plan.input r.plan.Plan.locs in
        { Alloc.plan; sg_cores = r.cores; seg_server = r.seg_server })
      placement.chain_reports
  in
  if
    not
      (List.for_all
         (fun a -> Plan.meets_latency a.Alloc.plan)
         allocs)
  then
    (* The ablated model may have underestimated per-NF latency; judged
       under the truth, a d_max-violating placement is a failure, not a
       deployment. *)
    Infeasible { reason = "d_max unsatisfiable under true profiles" }
  else
    match Alloc.evaluate config allocs with
    | None -> Infeasible { reason = "SLOs unsatisfiable under true profiles" }
    | Some lp ->
        Placed (build_placement strategy config allocs lp placement.stages_used)

(* ------------------------------------------------------------------ *)

let place strategy config inputs =
  let tm = Lemur_telemetry.Telemetry.current () in
  Lemur_telemetry.Telemetry.with_span tm ("placer.place." ^ name strategy)
  @@ fun () ->
  Lemur_telemetry.Counter.incr (Lemur_telemetry.Telemetry.counter tm "placer.places");
  timed @@ fun () ->
  try
    match strategy with
    | Lemur -> lemur_placement Lemur config inputs
    | Optimal -> optimal_placement config inputs
    | Greedy ->
        let plans =
          List.map
            (fun input ->
              Plan.elaborate config input (pattern_by_preference config input `Hw))
            inputs
        in
        best_allocation ~policy:Alloc.By_index Greedy config [ plans ]
    | Hw_preferred ->
        let plans =
          List.map
            (fun input ->
              Plan.elaborate config input (pattern_by_preference config input `Hw))
            inputs
        in
        best_allocation ~policy:Alloc.Even Hw_preferred config [ plans ]
    | Sw_preferred ->
        let plans =
          List.map
            (fun input ->
              Plan.elaborate config input (pattern_by_preference config input `Sw))
            inputs
        in
        best_allocation ~policy:Alloc.Slo_driven Sw_preferred config [ plans ]
    | Min_bounce -> min_bounce_placement config inputs
    | No_profiling -> (
        let blind_config =
          {
            config with
            Plan.profiler =
              Lemur_profiler.Profiler.create ~uniform_cycles:(Some 5000.0) ();
          }
        in
        match lemur_placement No_profiling blind_config inputs with
        | Infeasible _ as i -> i
        | Placed p -> reevaluate_with_truth No_profiling config p)
    | No_core_alloc ->
        lemur_placement ~policy:Alloc.No_extra No_core_alloc config inputs
  with Plan.Invalid_pattern msg -> Infeasible { reason = msg }
