(* End-to-end benchmark of the Lemur pipeline, one workload per run:

     dune exec --root . ./lemurbench/main.exe -- \
       --workload fig2-exec --seed 1 --seconds 20 --trace 0

   Every workload is a closed loop in this one process: each operation
   starts when the previous one has finished, and Lemur_util.Pool is
   pinned to one domain. The seed only generates inputs.

   - fig2-exec: the `lemur exec` path for every Fig 2 (a-e) chain set
     across the delta sweep. Each request is spec text with
     slo(tmin = delta x base rate) clauses: parse, place (Lemur), compile,
     routing check, oracle, packet engine and batch simulator at
     `lemur exec`'s defaults, convergence check. Caches are dropped
     before every request, as a fresh CLI process starts cold, so the
     cold placer dominates. The seed shuffles the request order.
   - runtime-replay: `lemur run --trace` under the default Immediate
     policy with the oracle hook and incremental re-placement on, over
     generated churn, tenant-churn and failure-burst traces. Caches are
     dropped before each trace only, so the placer runs warm and Sim is
     the per-epoch monitor.
   - fabric-shard: `lemur place --fabric` (Shard.place -j 1, then
     Fabric_check) on synthetic fabrics and tenant populations — the
     only path into Shard and Fabric_check.

   A run repeats whole passes over the inputs until --seconds have
   elapsed; timings are medians over passes, so a pass slowed by a cold
   heap or a busy host does not move them. With --trace 0 telemetry stays disabled
   and the run prints the end-to-end metrics. With --trace 1 untraced
   and traced passes alternate: traced passes record every span into a
   fresh registry (library spans plus the spans this file opens around
   each layer call) and give each layer's self time; untraced passes
   give the counts read off results, cache and GC deltas, and the
   baseline for the tracing overhead. Per-layer times and counts are
   per pass.

   The last stdout line is the result object. The run fails (exit 1,
   "correct": false) when an output check fails, when repeated passes
   disagree on the deterministic digest, or when the emitted workload
   and metric names differ from those BENCHMARK.json declares. *)

module Tm = Lemur_telemetry.Telemetry
module Json = Lemur_telemetry.Json
module Pool = Lemur_util.Pool
module Prng = Lemur_util.Prng
module Units = Lemur_util.Units
module Plan = Lemur_placer.Plan
module Strategy = Lemur_placer.Strategy
module Memo = Lemur_placer.Memo
module Shard = Lemur_placer.Shard
module Fabric = Lemur_topology.Fabric
module Sim = Lemur_dataplane.Sim
module Packet_engine = Lemur_dataplane.Engine
module Control_loop = Lemur_runtime.Engine
module Report = Lemur_runtime.Report
module Trace = Lemur_runtime.Trace

let now = Unix.gettimeofday

(* A span around one call into a layer; free on the disabled sink. *)
let span name f = Tm.with_span (Tm.current ()) name f

(* Values read off layer results during one pass (hops, decisions...). *)
let tallies : (string, float) Hashtbl.t = Hashtbl.create 16

let tallied name = Option.value ~default:0.0 (Hashtbl.find_opt tallies name)
let tally name x = Hashtbl.replace tallies name (tallied name +. x)

(* ------------------------------------------------------------------ *)
(* One pass over a workload's inputs                                    *)

type pass = {
  mutable attempted : int;
  mutable failed : int;
  mutable latencies : float list;  (** seconds *)
  mutable marginal_bps : float;
  mutable delivered_bps : float;
  mutable placed : int;
  mutable placeable : int;
  mutable violation_s : float;
  mutable digest : string;  (** the pass's deterministic output *)
  mutable failures : string list;  (** failed operations *)
  mutable errors : string list;  (** failed output checks *)
}

let new_pass () =
  {
    attempted = 0;
    failed = 0;
    latencies = [];
    marginal_bps = 0.0;
    delivered_bps = 0.0;
    placed = 0;
    placeable = 0;
    violation_s = 0.0;
    digest = "";
    failures = [];
    errors = [];
  }

(* An operation outcome: a failed operation is a measured result (it
   counts in failed_share); a wrong output also fails the run. *)
type verdict = Served | Failed of string | Wrong of string

let record p ?(ops = 1) label = function
  | Served -> ()
  | Failed why ->
      p.failed <- p.failed + ops;
      p.failures <- (label ^ ": " ^ why) :: p.failures
  | Wrong why ->
      p.failed <- p.failed + ops;
      p.errors <- (label ^ ": " ^ why) :: p.errors

let hex_digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let clear_caches () =
  Memo.clear ();
  Strategy.clear_variant_cache ()

(* ------------------------------------------------------------------ *)
(* fig2-exec                                                            *)

let fig2_sets =
  [
    ("fig2a", [ 1; 2; 3; 4 ]); ("fig2b", [ 1; 2; 3 ]); ("fig2c", [ 1; 2; 4 ]);
    ("fig2d", [ 1; 3; 4 ]); ("fig2e", [ 2; 3; 4 ]);
  ]

let deltas = [ 0.5; 1.0; 1.5; 2.0; 2.5; 3.0; 3.5; 4.0 ]

(* The subchains Table 2's chain texts refer to. *)
let prelude =
  "subchain sub6 = LB -> Limiter -> ACL\n\
   subchain sub7 = ACL -> Limiter\n\
   subchain sub8 = Detunnel -> Encrypt -> IPv4Fwd\n"

(* `lemur exec` defaults: both executors share seed, window, overdrive. *)
let exec_seed = 7
let exec_duration = Units.ms 10.0
let exec_overdrive = 1.08

type cell = { index : int; label : string; text : string }

let chain_inputs specs =
  List.map
    (fun (c : Lemur_spec.Loader.chain_spec) ->
      {
        Plan.id = c.chain_name;
        graph = c.graph;
        slo =
          (match c.slo_args with
          | None -> Lemur_slo.Slo.best_effort
          | Some args -> Lemur_slo.Slo.of_params args);
      })
    specs

let digest_placement b (p : Strategy.placement) =
  List.iter
    (fun (r : Strategy.chain_report) ->
      Printf.bprintf b "%s cores=%s rate=%h cap=%h bounces=%d segs=%s;"
        (Memo.plan_sig r.plan)
        (String.concat "," (Array.to_list (Array.map string_of_int r.cores)))
        r.rate r.capacity r.bounces
        (String.concat ","
           (List.map (fun (s, srv) -> Printf.sprintf "%d@%s" s srv) r.seg_server)))
    p.chain_reports;
  Printf.bprintf b " total=%h marginal=%h stages=%d cores=%d" p.total_rate
    p.total_marginal p.stages_used p.cores_used

let digest_engine b (er : Packet_engine.result) =
  List.iter
    (fun (c : Packet_engine.chain_result) ->
      Printf.bprintf b " %s:%d/%d/%d/%d/%d" c.chain_id c.injected_pkts
        c.delivered_pkts c.dropped_pkts c.shaped_pkts c.in_flight_pkts)
    er.chains;
  Printf.bprintf b " breaths=%d served=%d exhausted=%d" er.breaths
    er.total_served er.pool_exhausted

(* One `lemur exec` request. Returns its digest part, the placement (if
   any), the engine's delivered rate and the verdict. *)
let exec_request config cell =
  let b = Buffer.create 256 in
  let inputs =
    chain_inputs (span "spec.load" (fun () -> Lemur_spec.Loader.load cell.text))
  in
  match
    span "placer.place" (fun () -> Strategy.place Strategy.Lemur config inputs)
  with
  | Strategy.Infeasible { reason } -> (reason, None, 0.0, Served)
  | Strategy.Placed p ->
      digest_placement b p;
      let artifact =
        span "codegen.compile" (fun () -> Lemur_codegen.Codegen.compile config p)
      in
      let routing =
        span "codegen.routing_check" (fun () ->
            Lemur_codegen.Routing_check.verify p artifact)
      in
      tally "check.oracle.calls" 1.0;
      let oracle =
        span "check.oracle" (fun () -> Lemur_check.Oracle.check ~artifact config p)
      in
      let w0 = Gc.minor_words () in
      let er =
        Packet_engine.run ~seed:exec_seed ~duration:exec_duration
          ~overdrive:exec_overdrive ~config ~placement:p ()
      in
      let w1 = Gc.minor_words () in
      let sr =
        Sim.run ~seed:exec_seed ~duration:exec_duration
          ~overdrive:exec_overdrive ~config ~placement:p ()
      in
      let w2 = Gc.minor_words () in
      let convergence =
        span "check.convergence" (fun () ->
            Lemur_check.Convergence.check ~pkt_bytes:config.Plan.pkt_bytes
              ~engine:er ~sim:sr ())
      in
      digest_engine b er;
      tally "engine.hops" (float_of_int er.total_served);
      tally "engine.breaths" (float_of_int er.breaths);
      tally "engine.wall_s" er.wall_s;
      if er.total_served > 0 then begin
        tally "engine.hop_runs.wall_s" er.wall_s;
        tally "engine.hop_runs.minor_words" (w1 -. w0)
      end;
      tally "sim.wrapped_runs" 1.0;
      tally "sim.minor_words" (w2 -. w1);
      let verdict =
        match (routing, oracle, Packet_engine.conserved er) with
        | Error msg, _, _ -> Wrong ("routing check: " ^ msg)
        | _, Error vs, _ ->
            Wrong
              (String.concat ", "
                 (List.map (Format.asprintf "%a" Lemur_check.Oracle.pp_violation) vs))
        | _, _, false -> Wrong "packet conservation violated"
        | Ok (), Ok (), true -> (
            match convergence.Lemur_check.Convergence.divergences with
            | [] -> Served
            | ds ->
                Failed
                  (String.concat "; "
                     (List.map
                        (Format.asprintf "%a" Lemur_check.Convergence.pp_divergence)
                        ds)))
      in
      (Buffer.contents b, Some p, er.aggregate_throughput, verdict)

let fig2_setup seed =
  let config = Plan.default_config (Lemur_topology.Topology.testbed ()) in
  let base_rate n = Lemur.Chains.base_rate config (Lemur.Chains.graph n) in
  let cells =
    List.concat_map
      (fun (name, set) ->
        List.map
          (fun delta ->
            let chain n =
              Printf.sprintf "chain chain%d slo(tmin='%.17gbps') = %s\n" n
                (delta *. base_rate n) (Lemur.Chains.spec_text n)
            in
            (Printf.sprintf "%s/delta=%.1f" name delta,
             prelude ^ String.concat "" (List.map chain set)))
          deltas)
      fig2_sets
    |> List.mapi (fun index (label, text) -> { index; label; text })
    |> Array.of_list
  in
  Prng.shuffle (Prng.create ~seed) cells;
  fun () ->
    let p = new_pass () in
    let parts = Array.make (Array.length cells) "" in
    Array.iter
      (fun cell ->
        clear_caches ();
        let t0 = now () in
        let part, placement, delivered, verdict =
          try exec_request config cell
          with e -> ("crash", None, 0.0, Wrong (Printexc.to_string e))
        in
        p.latencies <- (now () -. t0) :: p.latencies;
        p.attempted <- p.attempted + 1;
        p.placeable <- p.placeable + 1;
        (match placement with
        | Some pl ->
            p.placed <- p.placed + 1;
            p.marginal_bps <- p.marginal_bps +. pl.Strategy.total_marginal;
            p.delivered_bps <- p.delivered_bps +. delivered
        | None -> ());
        record p cell.label verdict;
        parts.(cell.index) <- cell.label ^ " " ^ part)
      cells;
    p.digest <- hex_digest (Array.to_list parts);
    p

(* ------------------------------------------------------------------ *)
(* runtime-replay                                                       *)

let trace_kinds = [ Trace.Churn; Trace.Tenant_churn; Trace.Failure_burst ]
let traces_per_kind = 3
let trace_events = 100

(* Inputs are a fixed corpus that the seed perturbs: every offered rate
   moves by up to this share. A corpus drawn wholly from the seed would
   make each run's cost depend on which chains the draw happened to
   pick, far beyond the metrics' bounds; the jitter keeps the workload's
   shape while no two seeds replay the same inputs. *)
let jitter = 0.03

let jittered rng x = x *. (1.0 +. Prng.uniform rng ~lo:(-.jitter) ~hi:jitter)

let checked_deployment d =
  tally "check.oracle.calls" 1.0;
  span "check.oracle" (fun () -> Lemur_check.Runtime_check.checker d)

let runtime_setup seed =
  let rng = Prng.create ~seed in
  let perturb (e : Trace.event) =
    match e.action with
    | Trace.Traffic t -> { e with action = Trace.Traffic { t with rate = jittered rng t.rate } }
    | _ -> e
  in
  let traces =
    List.concat_map
      (fun kind ->
        List.init traces_per_kind (fun i ->
            let t = Trace.generate ~events:trace_events ~kind ~seed:(i + 1) () in
            ( Printf.sprintf "%s trace %d" (Trace.kind_to_string kind) (i + 1),
              { t with events = List.map perturb t.events } )))
      trace_kinds
  in
  fun () ->
    let p = new_pass () in
    let marginal_bits = ref 0.0 and horizon = ref 0.0 in
    let parts =
      List.map
        (fun (label, (trace : Trace.t)) ->
          clear_caches ();
          let ops = List.length trace.events in
          p.attempted <- p.attempted + ops;
          let cfg =
            Control_loop.default_config ~policy:Lemur_runtime.Policy.Immediate
              ~check:checked_deployment ~incremental:true ()
          in
          match span "runtime.run" (fun () -> Control_loop.run cfg trace) with
          | exception e ->
              record p ~ops label (Wrong (Printexc.to_string e));
              "crash"
          | Error e ->
              record p ~ops label (Wrong (Control_loop.error_to_string e));
              "error"
          | Ok (r, _) ->
              (match r.stop with
              | Report.Completed -> ()
              | Report.Aborted { reason; _ } ->
                  record p ~ops label (Failed ("aborted: " ^ reason)));
              p.latencies <- List.rev_append r.decision_latency_s p.latencies;
              p.violation_s <- p.violation_s +. r.total_violation_s;
              marginal_bits := !marginal_bits +. r.total_marginal_bits;
              horizon := !horizon +. r.horizon;
              List.iter
                (function
                  | Report.Reconfigured _ ->
                      p.placed <- p.placed + 1;
                      p.placeable <- p.placeable + 1
                  | Report.Infeasible _ -> p.placeable <- p.placeable + 1
                  | _ -> ())
                r.journal;
              tally "runtime.decisions"
                (float_of_int (List.length r.decision_latency_s));
              tally "runtime.epochs" (float_of_int r.epochs);
              Report.digest r)
        traces
    in
    p.marginal_bps <- !marginal_bits /. !horizon;
    p.digest <- hex_digest parts;
    p

(* ------------------------------------------------------------------ *)
(* fabric-shard                                                         *)

let fabric_racks = 4
let fabric_chains = 64
let fabric_scenarios = 5

let fabric_setup seed =
  let rng = Prng.create ~seed in
  let perturb (d : Fabric.demand) =
    { d with d_slo = { d.d_slo with t_min = jittered rng d.d_slo.t_min } }
  in
  let scenarios =
    List.init fabric_scenarios (fun i ->
        let fabric = Fabric.synthetic ~racks:fabric_racks () in
        let tenants =
          Fabric.synthetic_tenants ~seed:(i + 1) ~tenants:(2 * fabric_racks)
            ~chains:fabric_chains fabric
        in
        (Shard.default_config fabric, List.map perturb (Fabric.expand tenants)))
  in
  fun () ->
    let p = new_pass () in
    let parts =
      List.mapi
        (fun i (cfg, demands) ->
          clear_caches ();
          let label = Printf.sprintf "scenario %d" i in
          let ops = List.length demands in
          p.attempted <- p.attempted + ops;
          p.placeable <- p.placeable + ops;
          let t0 = now () in
          let part, verdict =
            match span "shard.place" (fun () -> Shard.place ~jobs:1 cfg demands) with
            | exception e -> ("crash", Wrong (Printexc.to_string e))
            | Shard.Infeasible { errors; _ } ->
                ( "infeasible",
                  Failed
                    (String.concat "; " (List.map Shard.error_to_string errors)) )
            | Shard.Placed fp -> (
                tally "shard.repairs" (float_of_int (List.length fp.repairs));
                p.placed <- p.placed + ops;
                p.marginal_bps <- p.marginal_bps +. fp.total_marginal;
                match
                  span "check.fabric_check" (fun () ->
                      Lemur_check.Fabric_check.check fp)
                with
                | Ok () -> (Shard.digest fp, Served)
                | Error vs ->
                    ( Shard.digest fp,
                      Wrong
                        (String.concat ", "
                           (List.map
                              (Format.asprintf "%a"
                                 Lemur_check.Fabric_check.pp_violation)
                              vs)) ))
          in
          p.latencies <- (now () -. t0) :: p.latencies;
          record p ~ops label verdict;
          part)
        scenarios
    in
    p.marginal_bps <- p.marginal_bps /. float_of_int fabric_scenarios;
    p.digest <- hex_digest parts;
    p

let workloads =
  [
    ("fig2-exec", fig2_setup);
    ("runtime-replay", runtime_setup);
    ("fabric-shard", fabric_setup);
  ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)

type sample = {
  s_pass : pass;
  s_wall : float;
  s_traced : Tm.t option;
  s_tallies : (string * float) list;
      (** what the pass tallied, plus its cache and GC deltas *)
}

let run_pass ~traced pass =
  Hashtbl.reset tallies;
  let registry = if traced then Tm.create () else Tm.disabled in
  Tm.set_current registry;
  let counts () =
    let mh, mm = Memo.stats () and vh, vm = Strategy.variant_cache_stats () in
    let g = Gc.quick_stat () in
    [
      ("memo.hits", float_of_int mh); ("memo.misses", float_of_int mm);
      ("memo.evictions", float_of_int (Memo.evictions ()));
      ("varcache.hits", float_of_int vh); ("varcache.misses", float_of_int vm);
      ("gc.minor_words", g.Gc.minor_words);
      ("gc.major_collections", float_of_int g.Gc.major_collections);
    ]
  in
  let before = counts () in
  let t0 = now () in
  let p = pass () in
  let wall = now () -. t0 in
  List.iter2 (fun (k, a) (_, b) -> tally k (b -. a)) before (counts ());
  Tm.set_current Tm.disabled;
  {
    s_pass = p;
    s_wall = wall;
    s_traced = (if traced then Some registry else None);
    s_tallies = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tallies [];
  }

(* Passes until [seconds] have elapsed; with [trace], untraced and
   traced passes alternate, and at least one of each runs. *)
let measure ~seconds ~trace pass =
  let t0 = now () in
  let rec go acc i =
    let enough = now () -. t0 >= seconds && ((not trace) || i >= 2) in
    if enough then List.rev acc
    else go (run_pass ~traced:(trace && i mod 2 = 1) pass :: acc) (i + 1)
  in
  go [] 0

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum_by f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let mean_by f xs = sum_by f xs /. float_of_int (max 1 (List.length xs))
let ratio a b = if b > 0.0 then a /. b else 0.0

(* ------------------------------------------------------------------ *)
(* Span-tree attribution                                                *)

(* The layer a span's self time belongs to. A span this table does not
   know (a layer added later) keeps its self time in its parent's
   layer, so the partition below stays complete. *)
let layer_of_span name =
  match name with
  | "spec.load" -> Some "spec.load_ms"
  | "placer.place" -> Some "placer.place.self_ms"
  | "placer.finalize" -> Some "placer.finalize_ms"
  | "placer.stagecheck.check" -> Some "placer.stagecheck_ms"
  | "placer.ratelp.solve" -> Some "placer.ratelp_ms"
  | "placer.evict_to_fit" -> Some "placer.evict_ms"
  | "codegen.compile" -> Some "codegen.compile_ms"
  | "codegen.routing_check" -> Some "codegen.routing_check_ms"
  | "check.oracle" -> Some "check.oracle_ms"
  | "check.convergence" -> Some "check.convergence_ms"
  | "check.fabric_check" -> Some "check.fabric_check_ms"
  | "dataplane.sim.run" -> Some "dataplane.sim_ms"
  | "dataplane.engine.run" -> Some "dataplane.engine_ms"
  | "runtime.run" -> Some "runtime.run.self_ms"
  | "shard.place" -> Some "shard.coordination_ms"
  | n when String.starts_with ~prefix:"placer.place." n ->
      Some "placer.place.self_ms"
  | _ -> None

(* Self times, in ms, that partition a traced pass's span time. *)
let self_layers =
  [
    "spec.load_ms"; "placer.place.self_ms"; "placer.finalize_ms";
    "placer.stagecheck_ms"; "placer.ratelp_ms"; "placer.evict_ms";
    "codegen.compile_ms"; "codegen.routing_check_ms"; "check.oracle_ms";
    "check.convergence_ms"; "check.fabric_check_ms"; "dataplane.sim_ms";
    "dataplane.engine_ms"; "runtime.run.self_ms"; "shard.coordination_ms";
  ]

let is_place name =
  name = "placer.place" || String.starts_with ~prefix:"placer.place." name

(* Per-registry totals, in seconds or counts: self time per layer,
   inclusive times of the wrapping layers, and span counts. *)
let attribute registry =
  let acc = Hashtbl.create 32 in
  let add k x = Hashtbl.replace acc k (x +. Option.value ~default:0.0 (Hashtbl.find_opt acc k)) in
  let rec walk ~layer ~in_place ~in_shard ~in_runtime (s : Tm.span) =
    let layer = match layer_of_span s.span_name with Some l -> Some l | None -> layer in
    let children = sum_by (fun (c : Tm.span) -> c.span_duration) s.span_children in
    let self = s.span_duration -. children in
    Option.iter (fun l -> add l self) layer;
    if self < 0.0 then add "negative_self_s" (-.self);
    let place = is_place s.span_name in
    if place && not in_place then begin
      add "placer.place_ms" s.span_duration;
      if in_shard then add "shard.rack_solve_ms" s.span_duration
    end;
    (match s.span_name with
    | "shard.place" -> add "shard.place_ms" s.span_duration
    | "runtime.run" -> add "runtime.run_ms" s.span_duration
    | "dataplane.sim.run" ->
        add "dataplane.sim.runs" 1.0;
        if in_runtime then add "runtime.monitor_ms" s.span_duration
    | _ -> ());
    List.iter
      (walk ~layer ~in_place:(in_place || place)
         ~in_shard:(in_shard || s.span_name = "shard.place")
         ~in_runtime:(in_runtime || s.span_name = "runtime.run"))
      s.span_children
  in
  List.iter
    (fun (s : Tm.span) ->
      add "covered_s" s.span_duration;
      walk ~layer:None ~in_place:false ~in_shard:false ~in_runtime:false s)
    (Tm.spans registry);
  List.iter
    (fun c -> add ("counter:" ^ Lemur_telemetry.Counter.name c)
        (float_of_int (Lemur_telemetry.Counter.value c)))
    (Tm.counters registry);
  fun k -> Option.value ~default:0.0 (Hashtbl.find_opt acc k)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let end_to_end ~setup_s ~samples =
  let passes = List.map (fun s -> s.s_pass) samples in
  (* Medians over passes, so one pass disturbed by the host moves
     nothing. *)
  let pct q =
    median
      (List.map (fun p -> Lemur_util.Stats.percentile q p.latencies *. 1e3) passes)
  in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [
    ("setup_s", "s", setup_s);
    ( "ops_per_s", "op/s",
      median
        (List.map
           (fun s -> float_of_int (s.s_pass.attempted - s.s_pass.failed) /. s.s_wall)
           samples) );
    ("latency_p50_ms", "ms", pct 50.0);
    ("latency_p90_ms", "ms", pct 90.0);
    ("marginal_gbps", "Gbit/s", mean_by (fun p -> p.marginal_bps) passes /. 1e9);
    ( "placed_share", "ratio",
      ratio (sum_by (fun p -> float_of_int p.placed) passes)
        (sum_by (fun p -> float_of_int p.placeable) passes) );
    ("heap_peak_mb", "MiB", float_of_int heap /. 1048576.0);
  ]

let per_layer ~samples =
  let untraced = List.filter (fun s -> s.s_traced = None) samples in
  let traced =
    List.filter_map
      (fun s -> Option.map (fun r -> (s, attribute r)) s.s_traced)
      samples
  in
  let span_ms k = mean_by (fun (_, get) -> get k) traced *. 1e3 in
  let span_count k = mean_by (fun (_, get) -> get k) traced in
  let counter k = span_count ("counter:" ^ k) in
  let tallied_sum k =
    sum_by (fun s -> Option.value ~default:0.0 (List.assoc_opt k s.s_tallies)) untraced
  in
  let per_pass k = tallied_sum k /. float_of_int (max 1 (List.length untraced)) in
  let memo_h = tallied_sum "memo.hits" and memo_m = tallied_sum "memo.misses" in
  let var_h = tallied_sum "varcache.hits" and var_m = tallied_sum "varcache.misses" in
  let ops = sum_by (fun s -> float_of_int s.s_pass.attempted) untraced in
  let hops = tallied_sum "engine.hops" in
  let traced_wall_ms = mean_by (fun (s, _) -> s.s_wall) traced *. 1e3 in
  let self = List.map (fun k -> (k, "ms/pass", span_ms k)) self_layers in
  let covered_ms = span_ms "covered_s" in
  let unattributed_ms = traced_wall_ms -. covered_ms in
  let passes = List.map (fun s -> s.s_pass) untraced in
  let layers =
    self
    @ [
        ("placer.place_ms", "ms/pass", span_ms "placer.place_ms");
        ("placer.stagecheck.calls", "count/pass", counter "placer.stagecheck.checks");
        ("placer.ratelp.solves", "count/pass", counter "placer.ratelp.solves");
        ("placer.memo.lookups", "count/pass", per_pass "memo.hits" +. per_pass "memo.misses");
        ("placer.memo.hit_ratio", "ratio", ratio memo_h (memo_h +. memo_m));
        ("placer.memo.evictions", "count/pass", per_pass "memo.evictions");
        ("placer.varcache.hit_ratio", "ratio", ratio var_h (var_h +. var_m));
        ("lp.simplex.solves", "count/pass", counter "lp.simplex.solves");
        ( "lp.simplex.pivots", "count/pass",
          List.fold_left
            (fun a k -> a +. counter ("lp.simplex." ^ k))
            0.0
            [ "phase1_pivots"; "phase2_pivots"; "warm_install_pivots";
              "warm_dual_pivots"; "warm_phase2_pivots" ] );
        ("lp.simplex.bland_fallbacks", "count/pass", counter "lp.simplex.bland_fallbacks");
        ("shard.place_ms", "ms/pass", span_ms "shard.place_ms");
        ("shard.rack_solve_ms", "ms/pass", span_ms "shard.rack_solve_ms");
        ("shard.repairs", "count/pass", per_pass "shard.repairs");
        ("check.oracle.calls", "count/pass", per_pass "check.oracle.calls");
        ("dataplane.sim.runs", "count/pass", span_count "dataplane.sim.runs");
        ( "dataplane.sim.minor_words_per_run", "words/run",
          ratio (tallied_sum "sim.minor_words") (tallied_sum "sim.wrapped_runs") );
        ("dataplane.engine.hops", "count/pass", per_pass "engine.hops");
        ( "dataplane.engine.ns_per_hop", "ns/hop",
          ratio (tallied_sum "engine.hop_runs.wall_s" *. 1e9) hops );
        ( "dataplane.engine.minor_words_per_hop", "words/hop",
          ratio (tallied_sum "engine.hop_runs.minor_words") hops );
        ("dataplane.engine.mix_hops_per_s", "hops/s", ratio hops (tallied_sum "engine.wall_s"));
        ("dataplane.engine.breaths", "count/pass", per_pass "engine.breaths");
        ("runtime.run_ms", "ms/pass", span_ms "runtime.run_ms");
        ("runtime.decisions", "count/pass", per_pass "runtime.decisions");
        ("runtime.epochs", "count/pass", per_pass "runtime.epochs");
        ("runtime.monitor_ms", "ms/pass", span_ms "runtime.monitor_ms");
        ( "gc.minor_words_per_op", "words/op",
          ratio (tallied_sum "gc.minor_words") ops );
        ("gc.major_collections", "count/pass", per_pass "gc.major_collections");
        ( "failed_share", "ratio",
          ratio (sum_by (fun p -> float_of_int p.failed) passes) ops );
        ("delivered_gbps", "Gbit/s", mean_by (fun p -> p.delivered_bps) passes /. 1e9);
        ("violation_s", "chain-s/pass", mean_by (fun p -> p.violation_s) passes);
        ("traced_wall_ms", "ms/pass", traced_wall_ms);
        ("unattributed_share", "ratio", ratio unattributed_ms traced_wall_ms);
        ( "trace_overhead_share", "ratio",
          ratio
            (median (List.map (fun (s, _) -> s.s_wall) traced))
            (median (List.map (fun s -> s.s_wall) untraced))
          -. 1.0 );
      ]
  in
  (* The layer self times plus the unattributed remainder must add up to
     the traced wall time: every span's time lands in exactly one layer
     (a root span no layer claims breaks this), no child outlasts its
     parent, and the spans fit inside the pass. *)
  let partition_ok =
    Float.abs (sum_by (fun (_, _, v) -> v) self +. unattributed_ms -. traced_wall_ms)
    <= 1e-6 *. traced_wall_ms
    && span_ms "negative_self_s" <= 0.001 *. traced_wall_ms
    && unattributed_ms >= -0.001 *. traced_wall_ms
  in
  (layers, partition_ok)

(* ------------------------------------------------------------------ *)
(* Contract with BENCHMARK.json                                         *)

let declared_names () =
  let read path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let names key doc =
    match Json.member key doc with
    | Some (Json.List items) ->
        List.filter_map
          (fun item ->
            match (Json.member "name" item, Json.member "unit" item) with
            | Some (Json.String n), Some (Json.String u) -> Some (n, u)
            | Some (Json.String n), None -> Some (n, "")
            | _ -> None)
          items
    | _ -> []
  in
  match Json.of_string (read "BENCHMARK.json") with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok doc ->
      (names "workloads" doc, names "end_to_end" doc, names "per_layer" doc)

let contract_errors ~emitted ~declared ~what =
  let missing =
    List.filter (fun d -> not (List.mem d emitted)) declared
    |> List.map (fun (n, u) -> Printf.sprintf "%s %s [%s] declared, not emitted" what n u)
  and undeclared =
    List.filter (fun e -> not (List.mem e declared)) emitted
    |> List.map (fun (n, u) -> Printf.sprintf "%s %s [%s] emitted, not declared" what n u)
  in
  missing @ undeclared

(* ------------------------------------------------------------------ *)
(* Envelope                                                             *)

let command_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> line
      | _ -> None
      | exception Unix.Unix_error _ -> None)

(* The checkout may carry no git metadata, so a digest of the library
   and CLI sources identifies the code under test as well. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.sort String.compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let path = Filename.concat dir e in
               if Sys.is_directory path then files path
               else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
               then [ path ]
               else [])
  in
  files "lib" @ files "bin"
  |> List.map (fun f -> f ^ ":" ^ Digest.to_hex (Digest.file f))
  |> hex_digest

(* ------------------------------------------------------------------ *)

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
   workloads: " ^ String.concat ", " (List.map fst workloads)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let setup =
    match List.assoc_opt !workload workloads with
    | Some setup -> setup
    | None ->
        prerr_endline usage;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let declared_workloads, declared_e2e, declared_layers = declared_names () in
  Pool.set_default 1;
  (* Set-up is timed on its own and repeated — at least 11 times, and
     for half a second when it is cheap — so its median is steady. *)
  let pass = setup !seed in
  let setup_times =
    let t_end = now () +. 0.5 in
    let rec go acc n =
      if n >= 11 && (now () >= t_end || n >= 500) then acc
      else begin
        let t0 = now () in
        let (_ : unit -> pass) = Sys.opaque_identity (setup !seed) in
        go ((now () -. t0) :: acc) (n + 1)
      end
    in
    go [] 0
  in
  let setup_s = median setup_times in
  let samples = measure ~seconds:!seconds ~trace:(!trace = 1) pass in
  let metrics, checks_ok =
    if !trace = 0 then (end_to_end ~setup_s ~samples, true)
    else per_layer ~samples
  in
  let passes = List.map (fun s -> s.s_pass) samples in
  let digests = List.sort_uniq String.compare (List.map (fun p -> p.digest) passes) in
  let errors =
    List.sort_uniq String.compare (List.concat_map (fun p -> p.errors) passes)
    @ (if List.length digests = 1 then [] else [ "digest differs across passes" ])
    @ (if checks_ok then [] else [ "layer self times do not partition the traced wall time" ])
    @ List.filter_map
        (fun (n, _, v) -> if Float.is_finite v then None else Some (n ^ " is not finite"))
        metrics
    @ contract_errors ~what:"workload"
        ~emitted:(List.map (fun (n, _) -> (n, "")) workloads)
        ~declared:declared_workloads
    @ contract_errors ~what:"metric"
        ~emitted:(List.map (fun (n, u, _) -> (n, u)) metrics)
        ~declared:(if !trace = 0 then declared_e2e else declared_layers)
  in
  let failures = List.sort_uniq String.compare (List.concat_map (fun p -> p.failures) passes) in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 passes in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 passes in
  let envelope =
    Json.Obj
      [
        ("workload", Json.String !workload);
        ("seed", Json.Int !seed);
        ("trace", Json.Int !trace);
        ("nproc", match command_line "nproc" [] with
          | Some n -> Json.String n | None -> Json.Null);
        ("recommended_domains", Json.Int (Pool.recommended_domains ()));
        ("pool_domains", Json.Int (Pool.get_default ()));
        ( "git_rev",
          match
            if Sys.file_exists ".git" then command_line "git" [ "rev-parse"; "HEAD" ]
            else None
          with
          | Some r -> Json.String r
          | None -> Json.Null );
        ("source_md5", Json.String (source_digest ()));
        ("digest", Json.String (String.concat "," digests));
        ("passes", Json.Int (List.length samples));
        ("pass_walls_s", Json.List (List.map (fun s -> Json.Float s.s_wall) samples));
        ("failures", Json.List (List.map (fun f -> Json.String f) failures));
        ("errors", Json.List (List.map (fun e -> Json.String e) errors));
      ]
  in
  print_endline (Json.to_string ~pretty:false (Json.Obj [ ("envelope", envelope) ]));
  let value v = if Float.is_finite v then v else 0.0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (errors = []) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n (value v) u)
          metrics));
  exit (if errors = [] then 0 else 1)
