(* The perf harness behind `dune exec bench/main.exe -- perf`: times the
   LP/MILP/strategy/fuzz hot paths over fixed seeds and writes
   BENCH_perf.json — the repo's perf trajectory point for this commit.
   docs/PERFORMANCE.md documents the measurements and how to read them.

   Everything reported as a count (pivots, nodes, cache hits) is
   deterministic given the seeds; wall-clock numbers are not, which is
   why the regression gate against bench/perf_baseline.json compares
   pivot counts only. *)

module Telemetry = Lemur_telemetry.Telemetry
module Counter = Lemur_telemetry.Counter
module Histogram = Lemur_telemetry.Histogram
module Json = Lemur_telemetry.Json
module Simplex = Lemur_lp.Simplex
module Scenario = Lemur_check.Scenario
module Fuzz = Lemur_check.Fuzz
module Prng = Lemur_util.Prng

(* ------------------------------------------------------------------ *)
(* Fixed-seed LP corpus. Identical in --quick and full mode so the
   checked-in pivot baseline is one number. *)

let fixed_instances =
  [
    (* small maximization *)
    ([| 3.0; 2.0 |], [| [| 1.0; 1.0 |]; [| 1.0; 3.0 |] |], [| 4.0; 6.0 |]);
    (* the textbook 2-var, 3-row LP *)
    ( [| 3.0; 5.0 |],
      [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |]; [| 3.0; 2.0 |] |],
      [| 4.0; 12.0; 18.0 |] );
    (* negative rhs: phase 1 with artificials *)
    ( [| 1.0; 1.0 |],
      [| [| -1.0; -1.0 |]; [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |],
      [| -2.0; 3.0; 3.0 |] );
    (* Beale's degenerate cycling example *)
    ( [| 0.75; -150.0; 0.02; -6.0 |],
      [|
        [| 0.25; -60.0; -0.04; 9.0 |];
        [| 0.5; -90.0; -0.02; 3.0 |];
        [| 0.0; 0.0; 1.0; 0.0 |];
      |],
      [| 0.0; 0.0; 1.0 |] );
    (* rate-LP shape: mixed 1e0 coefficients against 1e10 rhs *)
    ( [| 1.0; 1.0 |],
      [| [| 1.0; 1.0 |]; [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |],
      [| 40e9; 25e9; 25e9 |] );
  ]

let random_instances rng ~count ~nmax ~mmax =
  List.init count (fun _ ->
      let n = 2 + Prng.int rng nmax in
      let m = 2 + Prng.int rng mmax in
      let c = Array.init n (fun _ -> Prng.uniform rng ~lo:(-2.0) ~hi:10.0) in
      (* mixed-sign coefficients make polytopes whose optimum is many
         vertices from the slack basis — all-positive dense rows would
         bind after a pivot or two and measure only setup cost *)
      let a =
        Array.init m (fun _ ->
            Array.init n (fun _ -> Prng.uniform rng ~lo:(-5.0) ~hi:10.0))
      in
      (* roughly one row in six gets a negative rhs, forcing phase 1 *)
      let b = Array.init m (fun _ -> Prng.uniform rng ~lo:(-10.0) ~hi:50.0) in
      (* a box row keeps every instance bounded *)
      let box = Array.make n 1.0 in
      (c, Array.append a [| box |], Array.append b [| 100.0 |]))

(* Assignment-relaxation instances (k x k agents/tasks, x_ij in the
   doubly-stochastic polytope): heavily degenerate, like the MILP's
   NF-to-platform assignment rows. Degeneracy is where the pricing rule
   matters most — Bland's lowest-index rule walks long ties that
   Dantzig's steepest reduced cost skips. *)
let assignment_instances rng ~count ~kmax =
  List.init count (fun _ ->
      let k = 3 + Prng.int rng (kmax - 2) in
      let n = k * k in
      let c = Array.init n (fun _ -> Prng.float rng 10.0) in
      let row pick =
        Array.init n (fun v -> if pick v then 1.0 else 0.0)
      in
      let a =
        Array.append
          (Array.init k (fun i -> row (fun v -> v / k = i)))
          (Array.init k (fun j -> row (fun v -> v mod k = j)))
      in
      (c, a, Array.make (2 * k) 1.0))

(* Sizes mirror the placer's real LPs: many small rate-LP-shaped
   problems, the MILP relaxations' larger tableaux (tens of variables
   and rows once the McCormick envelopes are emitted), and degenerate
   assignment polytopes. *)
let corpus =
  let rng = Prng.create ~seed:42 in
  fixed_instances
  @ random_instances rng ~count:20 ~nmax:6 ~mmax:8
  @ random_instances rng ~count:10 ~nmax:40 ~mmax:60
  @ assignment_instances rng ~count:10 ~kmax:9

(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

let counter_value tm name = Counter.value (Telemetry.counter tm name)

let simplex_pivot_counters =
  [
    "lp.simplex.phase1_pivots";
    "lp.simplex.phase2_pivots";
    "lp.simplex.warm_install_pivots";
    "lp.simplex.warm_dual_pivots";
    "lp.simplex.warm_phase2_pivots";
  ]

let total_simplex_pivots tm =
  List.fold_left (fun acc n -> acc + counter_value tm n) 0 simplex_pivot_counters

(* Run [f] against a fresh recording registry; restore the disabled
   sink afterwards and hand the registry back for counter reads. *)
let with_registry f =
  let tm = Telemetry.create () in
  Telemetry.set_current tm;
  let finally () = Telemetry.set_current Telemetry.disabled in
  let r = try f () with e -> finally (); raise e in
  finally ();
  (r, tm)

(* Wall-clock ns for one pass over the corpus, averaged over [reps]
   passes with telemetry disabled (so instrumentation cost is not part
   of the measurement). *)
let time_passes ~reps f =
  Telemetry.set_current Telemetry.disabled;
  f () (* warm-up, excluded *);
  let t0 = now () in
  for _ = 1 to reps do
    f ()
  done;
  (now () -. t0) *. 1e9 /. float_of_int reps

type solver_outcome = Opt of float | Infeas | Unbound

let solve_corpus pricing () =
  List.map
    (fun (c, a, b) ->
      match fst (Simplex.solve_basis ~pricing ~c ~a ~b ()) with
      | Simplex.Optimal { objective; _ } -> Opt objective
      | Simplex.Infeasible -> Infeas
      | Simplex.Unbounded -> Unbound)
    corpus

let outcomes_agree xs ys =
  List.for_all2
    (fun x y ->
      match (x, y) with
      | Opt a, Opt b ->
          Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)
      | Infeas, Infeas | Unbound, Unbound -> true
      | _ -> false)
    xs ys

(* Dantzig's rule (the default) against Bland's lowest-index rule, the
   textbook pricing the solver started from: same corpus, outcomes must
   agree. *)
let bench_simplex ~reps =
  let bland_outcomes, bland_tm = with_registry (solve_corpus Simplex.Bland) in
  let bland_pivots = total_simplex_pivots bland_tm in
  let dantzig_outcomes, dantzig_tm =
    with_registry (solve_corpus Simplex.Dantzig)
  in
  let dantzig_pivots = total_simplex_pivots dantzig_tm in
  let fallbacks = counter_value dantzig_tm "lp.simplex.bland_fallbacks" in
  let agree = outcomes_agree bland_outcomes dantzig_outcomes in
  let t_bland =
    time_passes ~reps (fun () -> ignore (solve_corpus Simplex.Bland ()))
  in
  let t_dantzig =
    time_passes ~reps (fun () -> ignore (solve_corpus Simplex.Dantzig ()))
  in
  let size = List.length corpus in
  let solves_per_sec ns = float_of_int size /. (ns /. 1e9) in
  let hist tm name =
    let h = Telemetry.histogram tm name in
    Json.Obj
      [
        ("count", Json.Int (Histogram.count h));
        ("p50_ns", Json.Float (Histogram.percentile h 50.0));
        ("p99_ns", Json.Float (Histogram.percentile h 99.0));
      ]
  in
  let side name pivots ns =
    ( name,
      Json.Obj
        [
          ("pivots", Json.Int pivots);
          ("wall_ns_per_pass", Json.Float ns);
          ("solves_per_sec", Json.Float (solves_per_sec ns));
        ] )
  in
  let json =
    Json.Obj
      [
        ("corpus_size", Json.Int size);
        ("outcomes_agree", Json.Bool agree);
        side "bland" bland_pivots t_bland;
        side "dantzig" dantzig_pivots t_dantzig;
        ("dantzig_bland_fallbacks", Json.Int fallbacks);
        ( "pivot_ratio_vs_bland",
          Json.Float (float_of_int bland_pivots /. float_of_int dantzig_pivots) );
        ("wall_speedup_vs_bland", Json.Float (t_bland /. t_dantzig));
        ("phase1", hist dantzig_tm "lp.simplex.phase1_ns");
        ("phase2", hist dantzig_tm "lp.simplex.phase2_ns");
      ]
  in
  (json, bland_pivots, dantzig_pivots, t_bland /. t_dantzig, agree)

(* ------------------------------------------------------------------ *)

let bench_milp ~seeds =
  let run ~warm =
    with_registry (fun () ->
        let t0 = now () in
        let objectives =
          List.map
            (fun seed ->
              let config, inputs = Scenario.milp_instance ~seed in
              match Lemur_placer.Milp.solve ~warm config inputs with
              | Some r -> Opt r.Lemur_placer.Milp.objective
              | None -> Infeas
              | exception Lemur_placer.Milp.Unsupported _ -> Unbound)
            seeds
        in
        (objectives, now () -. t0))
  in
  let (cold_obj, cold_wall), cold_tm = run ~warm:false in
  let (warm_obj, warm_wall), warm_tm = run ~warm:true in
  let side tm wall extras =
    Json.Obj
      ([
         ("nodes", Json.Int (counter_value tm "lp.milp.nodes"));
         ("simplex_pivots", Json.Int (total_simplex_pivots tm));
         ("wall_s", Json.Float wall);
       ]
      @ extras)
  in
  let agree = outcomes_agree cold_obj warm_obj in
  let json =
    Json.Obj
      [
        ("seeds", Json.Int (List.length seeds));
        ("objectives_match", Json.Bool agree);
        ("cold", side cold_tm cold_wall []);
        ( "warm",
          side warm_tm warm_wall
            [
              ("warm_nodes", Json.Int (counter_value warm_tm "lp.milp.warm_nodes"));
              ( "warm_solves",
                Json.Int (counter_value warm_tm "lp.simplex.warm_solves") );
              ( "warm_fallbacks",
                Json.Int (counter_value warm_tm "lp.simplex.warm_fallbacks") );
              ( "dual_pivots",
                Json.Int (counter_value warm_tm "lp.simplex.warm_dual_pivots") );
            ] );
        ( "pivot_ratio_cold_over_warm",
          Json.Float
            (float_of_int (total_simplex_pivots cold_tm)
            /. float_of_int (max 1 (total_simplex_pivots warm_tm))) );
      ]
  in
  (json, agree)

(* ------------------------------------------------------------------ *)

(* Canonical placement rendering for the cached-vs-uncached equivalence
   check: everything the solver decided, nothing wall-clock. *)
let render_outcome = function
  | Lemur_placer.Strategy.Infeasible { reason } -> "infeasible:" ^ reason
  | Lemur_placer.Strategy.Placed p ->
      let module S = Lemur_placer.Strategy in
      String.concat ";"
        (Printf.sprintf "%h|%h|%d|%d" p.S.total_rate p.S.total_marginal
           p.S.stages_used p.S.cores_used
        :: List.map
             (fun (r : S.chain_report) ->
               Printf.sprintf "%s|%h|%h|%h|%d|%s"
                 (Lemur_placer.Memo.plan_sig r.S.plan)
                 r.S.rate r.S.capacity r.S.latency r.S.bounces
                 (String.concat ","
                    (List.map string_of_int (Array.to_list r.S.cores))))
             p.S.chain_reports)

(* Demand-capped SLO variants of a scenario's inputs, the way the
   runtime engine derives effective SLOs from observed demand: t_max
   shrinks, t_min (the contract) and the structure stay put. Placing
   the same scenario across these levels is the paper's core loop —
   re-solving as conditions change — and is precisely what the
   SLO-free variant-cache keys are built to accelerate. *)
let demand_levels = [ 1.0; 0.75; 0.5 ]

let at_demand factor (inputs : Lemur_placer.Plan.chain_input list) =
  if factor >= 1.0 then inputs
  else
    List.map
      (fun (i : Lemur_placer.Plan.chain_input) ->
        let slo = i.Lemur_placer.Plan.slo in
        let t_max = slo.Lemur_slo.Slo.t_max in
        if Float.is_finite t_max then
          {
            i with
            Lemur_placer.Plan.slo =
              {
                slo with
                Lemur_slo.Slo.t_max =
                  Float.max slo.Lemur_slo.Slo.t_min (t_max *. factor);
              };
          }
        else i)
      inputs

let bench_strategy ~seeds =
  let strategies = [ Lemur_placer.Strategy.Lemur; Lemur_placer.Strategy.Optimal ] in
  let pass ~fresh =
    List.concat_map
      (fun seed ->
        (* full-size scenarios: their pattern searches are what a
           variant-cache hit skips *)
        let sc = Scenario.generate ~quick:false ~seed () in
        let cfg = Scenario.config sc in
        let inputs = Scenario.inputs sc in
        List.concat_map
          (fun factor ->
            let inputs = at_demand factor inputs in
            List.map
              (fun strategy ->
                if fresh then Lemur_placer.Strategy.clear_variant_cache ();
                render_outcome
                  (Lemur_placer.Strategy.place strategy cfg inputs))
              strategies)
          demand_levels)
      seeds
  in
  let hits0, misses0 = Lemur_placer.Strategy.variant_cache_stats () in
  let t0 = now () in
  let cached = pass ~fresh:false in
  let wall = now () -. t0 in
  let hits1, misses1 = Lemur_placer.Strategy.variant_cache_stats () in
  let hits = hits1 - hits0 and misses = misses1 - misses0 in
  (* The same corpus with the variant cache dropped before each
     placement: the cache must be invisible in the results, or it is
     wrong, not fast. *)
  let tu0 = now () in
  let uncached = pass ~fresh:true in
  let uncached_wall = now () -. tu0 in
  let placements_match = List.for_all2 String.equal cached uncached in
  let places = List.length cached in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let json =
    Json.Obj
      [
        ("seeds", Json.Int (List.length seeds));
        ("places", Json.Int places);
        ("wall_s", Json.Float wall);
        ("places_per_sec", Json.Float (float_of_int places /. wall));
        ("varcache_hits", Json.Int hits);
        ("varcache_misses", Json.Int misses);
        ("varcache_hit_rate", Json.Float hit_rate);
        ("uncached_wall_s", Json.Float uncached_wall);
        ("wall_speedup_vs_uncached", Json.Float (uncached_wall /. wall));
        ("placements_match", Json.Bool placements_match);
      ]
  in
  (json, hit_rate, placements_match)

let bench_fuzz ~jobs ~count =
  let t0 = now () in
  let s = Fuzz.run ~quick:true ~sim:true ~jobs ~seed:1 ~count () in
  let wall = now () -. t0 in
  Json.Obj
    [
      ("count", Json.Int count);
      ("jobs", Json.Int jobs);
      ("wall_s", Json.Float wall);
      ( "scenarios_per_sec",
        Json.Float (float_of_int s.Fuzz.scenarios /. wall) );
      ("failures", Json.Int (List.length s.Fuzz.failures));
      ("digest", Json.String s.Fuzz.digest);
      ("varcache_hits", Json.Int s.Fuzz.cache_hits);
      ("varcache_misses", Json.Int s.Fuzz.cache_misses);
    ]

(* ------------------------------------------------------------------ *)

(* The checked-in pivot count the regression gate allows 1.2x of. *)
let baseline_path = "bench/perf_baseline.json"

let read_baseline () =
  match
    Json.of_string (In_channel.with_open_text baseline_path In_channel.input_all)
  with
  | Ok doc -> (
      match Option.bind (Json.member "simplex_pivots" doc) Json.to_float with
      | Some v -> Ok (int_of_float v)
      | None -> Error (baseline_path ^ ": no \"simplex_pivots\" member"))
  | Error msg -> Error (baseline_path ^ ": " ^ msg)
  | exception Sys_error msg -> Error msg

let min_hit_rate = 0.2

let main args =
  let o = Bench_gate.parse "perf" args in
  let quick = o.Bench_gate.quick and jobs = o.Bench_gate.jobs in
  let reps = if quick then 20 else 200 in
  let milp_seeds = List.init (if quick then 5 else 15) (fun i -> i + 1) in
  let strat_seeds = List.init (if quick then 10 else 50) (fun i -> i + 1) in
  let fuzz_count = if quick then 10 else 50 in
  Printf.printf "perf: simplex corpus (%d instances, %d timing passes)...\n%!"
    (List.length corpus) reps;
  let simplex_json, bland_pivots, opt_pivots, speedup, agree =
    bench_simplex ~reps
  in
  Printf.printf "  pivots: Bland %d, Dantzig %d (%.2fx); wall speedup %.2fx\n%!"
    bland_pivots opt_pivots
    (float_of_int bland_pivots /. float_of_int opt_pivots)
    speedup;
  Printf.printf "perf: MILP warm vs cold (%d seeds)...\n%!"
    (List.length milp_seeds);
  let milp_json, milp_agree = bench_milp ~seeds:milp_seeds in
  Printf.printf "perf: strategy variant cache (%d seeds)...\n%!"
    (List.length strat_seeds);
  let strategy_json, hit_rate, placements_match =
    bench_strategy ~seeds:strat_seeds
  in
  Printf.printf "perf: fuzz workload (%d scenarios, %d job(s))...\n%!"
    fuzz_count jobs;
  let fuzz_json = bench_fuzz ~jobs ~count:fuzz_count in
  let pivot_gate =
    match read_baseline () with
    | Error msg ->
        Bench_gate.gate "pivots" false ("cannot read baseline: " ^ msg)
    | Ok expected ->
        let limit = int_of_float (Float.round (1.2 *. float_of_int expected)) in
        Bench_gate.gate "pivots" (opt_pivots <= limit)
          (Printf.sprintf "%d simplex pivots, limit %d = 1.2 x baseline %d"
             opt_pivots limit expected)
  in
  Bench_gate.finish o
    [
      Bench_gate.gate "dantzig-bland" agree
        (Printf.sprintf "outcomes %s on %d instances"
           (if agree then "agree" else "DIVERGE")
           (List.length corpus));
      Bench_gate.gate "milp-warm-cold" milp_agree
        (if milp_agree then "objectives match" else "objectives DIVERGE");
      Bench_gate.gate "cached-placements" placements_match
        (if placements_match then "cached placements match uncached"
         else "cached placements differ from uncached");
      Bench_gate.gate "varcache-hit-rate" (hit_rate >= min_hit_rate)
        (Printf.sprintf "%.1f%%, floor %.1f%%" (100.0 *. hit_rate)
           (100.0 *. min_hit_rate));
      pivot_gate;
    ]
    [
      (* the number the pivot gate compares: total pivots of the
         default (Dantzig) solver over the fixed corpus *)
      ("simplex_pivots", Json.Int opt_pivots);
      ("bland_simplex_pivots", Json.Int bland_pivots);
      ("simplex", simplex_json);
      ("milp", milp_json);
      ("strategy", strategy_json);
      ("fuzz", fuzz_json);
    ]
