(* The classifier bench behind `dune exec bench/main.exe -- classify`:
   generates seeded rulesets at several sizes, builds all three
   classifiers over each, and gates three properties into
   BENCH_classify.json:

   - agreement (hard gate): on every corpus header, the tuple-space
     and computed classifiers return exactly the rule the priority
     linear scan returns;
   - speedup (hard gate): at the largest size, the computed index's
     wall-clock lookups/sec beats the linear scan's by at least 5x —
     the NuevoMatchUP-direction claim this subsystem models;
   - determinism (hard gate): the corpus digest — matched rule ids and
     modeled cycle costs, folded in size order — at -j N must be
     byte-identical to -j 1.

   The headline metric is wall-clock lookups/sec per algorithm per
   ruleset size; the modeled cycle costs (what the profiler feeds the
   placer, see docs/CLASSIFIER.md) land in the JSON next to them. *)

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
  s_mismatches : int;  (* corpus headers where any algo disagrees *)
  s_digest_line : string;
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
  (* Agreement + digest in one deterministic pass: matched ids and
     modeled cycles only, never wall-clock. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (string_of_int size);
  let mismatches = ref 0 in
  Array.iter
    (fun h ->
      let ids =
        List.map
          (fun (_, cls, _) ->
            let o = Classifier.cost cls h in
            ( (match o.Classifier.o_rule with
              | Some r -> r.Rule.id
              | None -> -1),
              int_of_float o.Classifier.o_cycles ))
          built
      in
      (match ids with
      | (lin_id, _) :: rest ->
          if List.exists (fun (id, _) -> id <> lin_id) rest then
            incr mismatches
      | [] -> ());
      List.iter
        (fun (id, cy) -> Buffer.add_string buf (Printf.sprintf "|%d:%d" id cy))
        ids)
    corpus;
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
    s_mismatches = !mismatches;
    s_digest_line = Buffer.contents buf;
  }

let run_corpus ~quick ~jobs sizes =
  let results = Pool.map ~domains:jobs (run_size ~quick) sizes in
  let crashes = ref [] in
  let runs =
    List.concat_map
      (fun r ->
        match r with
        | Ok run -> [ run ]
        | Error (e : Pool.job_error) ->
            crashes := e.Pool.message :: !crashes;
            [])
      results
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (List.map (fun r -> r.s_digest_line) runs)))
  in
  ((runs, List.rev !crashes), digest)

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
      ("mismatches", Json.Int s.s_mismatches);
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
    "## classify: rulesets %s, linear vs tuple-space vs computed, -j 1 vs -j \
     %d (host reports %d domain(s))\n%!"
    (String.concat "/" (List.map string_of_int sizes))
    jobs
    (Pool.recommended_domains ());
  let ((runs, crashes), digest), determinism =
    Bench_gate.determinism ~jobs (fun jobs -> run_corpus ~quick ~jobs sizes)
  in
  List.iter (fun m -> Printf.printf "  CRASH: %s\n" m) crashes;
  List.iter
    (fun s ->
      Printf.printf "  %7d rules%s\n" s.s_size
        (if s.s_mismatches = 0 then ""
         else Printf.sprintf "  %d AGREEMENT MISMATCHES" s.s_mismatches);
      List.iter
        (fun a ->
          Printf.printf
            "    %-12s %12.0f lookups/s   mean %8.0f cy   worst %8.0f cy   %s\n"
            (Classifier.algo_name a.a_algo)
            (rate a) a.a_mean_cycles a.a_worst_cycles a.a_structure)
        s.s_algos)
    runs;
  let agreement = List.for_all (fun s -> s.s_mismatches = 0) runs in
  let top =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some t when t.s_size >= s.s_size -> acc
        | _ -> Some s)
      None runs
  in
  let speedup =
    match top with
    | None -> 0.0
    | Some s ->
        let lin = find_rate s Classifier.Linear_scan in
        let nuevo = find_rate s Classifier.Computed in
        if lin > 0.0 then nuevo /. lin else 0.0
  in
  let speedup_ok = speedup >= 5.0 in
  Bench_gate.finish o
    [
      Bench_gate.gate "agreement" agreement
        (if agreement then "all three classifiers identical on every header"
         else "MISMATCH");
      Bench_gate.gate "speedup" speedup_ok
        (Printf.sprintf "computed %.1fx linear at %d rules (needs >= 5x)"
           speedup
           (match top with Some s -> s.s_size | None -> 0));
      determinism;
      Bench_gate.gate "crashes" (crashes = [])
        (Printf.sprintf "%d crashed size(s)" (List.length crashes));
    ]
    [
      ("sizes", Json.List (List.map (fun s -> Json.Int s) sizes));
      ("runs", Json.List (List.map size_json runs));
      ("speedup_computed_vs_linear_at_top", Json.Float speedup);
      ("speedup_ok", Json.Bool speedup_ok);
      ("agreement", Json.Bool agreement);
      ("digest", Json.String digest);
      ("digests_equal", Json.Bool determinism.Bench_gate.ok);
      ("crashes", Json.List (List.map (fun m -> Json.String m) crashes));
    ]
