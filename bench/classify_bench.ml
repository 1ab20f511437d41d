(* The classifier bench behind `dune exec bench/main.exe -- classify`:
   generates seeded rulesets at several sizes, builds all three
   classifiers over each, times their lookups and writes
   BENCH_classify.json.

   Its one gate reads the clock: at the largest size, the computed
   index's wall-clock lookups/sec must beat the linear scan's by at
   least 5x — the NuevoMatchUP-direction claim this subsystem models.
   The modeled cycle costs (what the profiler feeds the placer, see
   docs/CLASSIFIER.md) land in the JSON next to the rates. Three-way
   agreement on the quick corpus, its digest and its -j invariance are
   pinned in test/test_classifier.ml. *)

open Lemur_classifier
module Pool = Lemur_util.Pool
module Json = Lemur_telemetry.Json

type algo_result = {
  a_algo : Classifier.algo;
  a_lookups : int;
  a_wall : float;  (* seconds, wall clock over [a_lookups] lookups *)
  a_mean_cycles : float;  (* modeled, over the corpus *)
  a_worst_cycles : float;  (* modeled, over the corpus *)
  a_structure : string;
}

type size_result = {
  s_size : int;
  s_build_wall : float array;  (* per algo, [Classifier.all_algos] order *)
  s_algos : algo_result list;
}

(* Walk the corpus with the silent [Classifier.cost] so the timed loop
   measures lookups, not atomic counter traffic. Returns wall seconds;
   the fold result is kept live so the loop cannot be dead-code
   eliminated. *)
let time_lookups cls corpus ~passes =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0.0 in
  for _ = 1 to passes do
    Array.iter
      (fun h -> acc := !acc +. (Classifier.cost cls h).Classifier.o_cycles)
      corpus
  done;
  let wall = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !acc);
  (wall, passes * Array.length corpus)

let run_size ~quick size =
  let rs = Ruleset.generate ~size () in
  let corpus = Ruleset.headers rs ~flows:(if quick then 256 else 2048) in
  let built =
    List.map
      (fun algo ->
        let t0 = Unix.gettimeofday () in
        let cls = Classifier.build algo rs in
        (algo, cls, Unix.gettimeofday () -. t0))
      Classifier.all_algos
  in
  (* Lookups/sec: enough passes over the corpus that even the computed
     index accumulates measurable wall time. *)
  let passes algo =
    match algo with
    | Classifier.Linear_scan -> if quick then 1 else max 1 (200_000 / size)
    | Classifier.Tuple_space | Classifier.Computed -> if quick then 8 else 40
  in
  let algos =
    List.map
      (fun (algo, cls, _) ->
        let wall, lookups = time_lookups cls corpus ~passes:(passes algo) in
        {
          a_algo = algo;
          a_lookups = lookups;
          a_wall = wall;
          a_mean_cycles = Classifier.mean_cycles cls corpus;
          a_worst_cycles = Classifier.worst_cycles cls corpus;
          a_structure = Classifier.describe cls;
        })
      built
  in
  {
    s_size = size;
    s_build_wall = Array.of_list (List.map (fun (_, _, w) -> w) built);
    s_algos = algos;
  }

let rate a = if a.a_wall > 0.0 then float_of_int a.a_lookups /. a.a_wall else 0.0

let algo_json a =
  Json.Obj
    [
      ("algo", Json.String (Classifier.algo_name a.a_algo));
      ("lookups", Json.Int a.a_lookups);
      ("wall_s", Json.Float a.a_wall);
      ("lookups_per_sec", Json.Float (rate a));
      ("mean_cycles", Json.Float a.a_mean_cycles);
      ("worst_cycles", Json.Float a.a_worst_cycles);
      ("structure", Json.String a.a_structure);
    ]

let size_json s =
  Json.Obj
    [
      ("rules", Json.Int s.s_size);
      ( "build_wall_s",
        Json.List
          (List.map (fun w -> Json.Float w) (Array.to_list s.s_build_wall)) );
      ("algos", Json.List (List.map algo_json s.s_algos));
    ]

let find_rate s algo =
  match List.find_opt (fun a -> a.a_algo = algo) s.s_algos with
  | Some a -> rate a
  | None -> 0.0

let main args =
  let o = Bench_gate.parse "classify" args in
  let quick = o.Bench_gate.quick and jobs = o.Bench_gate.jobs in
  let sizes = if quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ] in
  Printf.printf
    "## classify: rulesets %s, linear vs tuple-space vs computed, -j %d \
     (host reports %d domain(s))\n%!"
    (String.concat "/" (List.map string_of_int sizes))
    jobs
    (Pool.recommended_domains ());
  let runs =
    List.filter_map
      (function
        | Ok run -> Some run
        | Error (e : Pool.job_error) ->
            Printf.printf "  CRASH: %s\n" e.Pool.message;
            None)
      (Pool.map ~domains:jobs (run_size ~quick) sizes)
  in
  List.iter
    (fun s ->
      Printf.printf "  %7d rules\n" s.s_size;
      List.iter
        (fun a ->
          Printf.printf
            "    %-12s %12.0f lookups/s   mean %8.0f cy   worst %8.0f cy   %s\n"
            (Classifier.algo_name a.a_algo)
            (rate a) a.a_mean_cycles a.a_worst_cycles a.a_structure)
        s.s_algos)
    runs;
  (* a crash at the largest size fails the gate *)
  let top = List.find_opt (fun s -> s.s_size = List.fold_left max 0 sizes) runs in
  let speedup =
    match top with
    | None -> 0.0
    | Some s ->
        let lin = find_rate s Classifier.Linear_scan in
        if lin > 0.0 then find_rate s Classifier.Computed /. lin else 0.0
  in
  let speedup_ok = speedup >= 5.0 in
  Bench_gate.finish o
    [
      Bench_gate.gate "speedup" speedup_ok
        (match top with
        | Some s ->
            Printf.sprintf "computed %.1fx linear at %d rules (needs >= 5x)"
              speedup s.s_size
        | None -> "the largest ruleset crashed");
    ]
    [
      ("sizes", Json.List (List.map (fun s -> Json.Int s) sizes));
      ("runs", Json.List (List.map size_json runs));
      ("speedup_computed_vs_linear_at_top", Json.Float speedup);
      ("speedup_ok", Json.Bool speedup_ok);
    ]
