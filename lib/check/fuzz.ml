module Telemetry = Lemur_telemetry.Telemetry
module Counter = Lemur_telemetry.Counter
module Pool = Lemur_util.Pool

type failure_report = {
  fr_seed : int;
  fr_report : Differential.report;
  fr_shrunk : Scenario.t option;
}

type summary = {
  scenarios : int;
  placements_checked : int;
  all_infeasible : int;
  milp_checked : int;
  sim_checked : int;
  strategy_times : (string * float) list;
  cache_hits : int;
  cache_misses : int;
  classifier : Lemur_classifier.Classifier.stats;
      (* deltas over this run; excluded from the digest like the cache
         fields *)
  failures : failure_report list;
  digest : string;
}

let add_times acc ts =
  List.fold_left
    (fun acc (name, t) ->
      match List.assoc_opt name acc with
      | Some prev -> (name, prev +. t) :: List.remove_assoc name acc
      | None -> (name, t) :: acc)
    acc ts

(* Scenarios are dispatched to the pool in fixed-size batches, then
   folded into the summary strictly in seed order. The batch size is a
   constant — NOT a function of [jobs] — so which scenarios run (and
   therefore every count and the digest) is identical for every [-j]:
   the fold stops consuming at [max_failures] at the same scenario no
   matter how many domains computed the batch. *)
let batch_size = 32

(* The digest covers exactly the deterministic per-scenario outcomes —
   what placed at which objective, what was infeasible, which
   cross-checks ran, and every failure — and none of the wall-clock or
   cache fields. This is the byte-identity contract behind
   [lemur fuzz -j N]. *)
let digest_line buf fseed (r : Differential.report) =
  Buffer.add_string buf (string_of_int fseed);
  List.iter
    (fun (name, obj) ->
      Buffer.add_string buf (Printf.sprintf "|%s=%.17g" name obj))
    r.Differential.placed;
  List.iter
    (fun name -> Buffer.add_string buf ("|-" ^ name))
    r.Differential.infeasible;
  Buffer.add_string buf
    (Printf.sprintf "|m%bs%b" r.Differential.milp_checked
       r.Differential.sim_checked);
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Format.asprintf "|F:%a" Differential.pp_failure f))
    r.Differential.failures;
  Buffer.add_char buf '\n'

let run ?(quick = true) ?(sim = true) ?(shrink = false) ?(max_failures = 5)
    ?(jobs = 1) ~seed ~count () =
  let tm = Telemetry.current () in
  let c_scen = Telemetry.counter tm "fuzz.scenarios" in
  let c_placed = Telemetry.counter tm "fuzz.placements_checked" in
  let c_infeasible = Telemetry.counter tm "fuzz.all_infeasible" in
  let c_failures = Telemetry.counter tm "fuzz.failures" in
  let hits0, misses0 = Lemur_placer.Strategy.variant_cache_stats () in
  let cls0 = Lemur_classifier.Classifier.stats () in
  let digest_buf = Buffer.create 1024 in
  let summary =
    ref
      {
        scenarios = 0;
        placements_checked = 0;
        all_infeasible = 0;
        milp_checked = 0;
        sim_checked = 0;
        strategy_times = [];
        cache_hits = 0;
        cache_misses = 0;
        classifier = cls0;
        failures = [];
        digest = "";
      }
  in
  let stopped = ref false in
  let consume s (report : Differential.report) =
    Counter.incr c_scen;
    Counter.incr ~by:(List.length report.Differential.placed) c_placed;
    if report.Differential.placed = [] then Counter.incr c_infeasible;
    digest_line digest_buf s report;
    let acc = !summary in
    let failures =
      if Differential.failed report then begin
        Counter.incr c_failures;
        let fr_shrunk =
          if shrink then
            (* Shrinking is kept sequential (main domain): it re-runs
               the differential many times with data-dependent control
               flow, the worst possible shape for the pool. *)
            Some
              (Scenario.shrink
                 ~fails:(fun sc ->
                   Differential.failed (Differential.run ~quick ~sim sc))
                 report.Differential.scenario)
          else None
        in
        { fr_seed = s; fr_report = report; fr_shrunk } :: acc.failures
      end
      else acc.failures
    in
    summary :=
      {
        acc with
        scenarios = acc.scenarios + 1;
        placements_checked =
          acc.placements_checked + List.length report.Differential.placed;
        all_infeasible =
          (acc.all_infeasible
          + if report.Differential.placed = [] then 1 else 0);
        milp_checked =
          (acc.milp_checked + if report.Differential.milp_checked then 1 else 0);
        sim_checked =
          (acc.sim_checked + if report.Differential.sim_checked then 1 else 0);
        strategy_times = add_times acc.strategy_times report.Differential.timings;
        failures;
      };
    if List.length failures >= max_failures then stopped := true
  in
  let next = ref seed in
  let last = seed + count - 1 in
  while (not !stopped) && !next <= last do
    let batch =
      List.init (min batch_size (last - !next + 1)) (fun i -> !next + i)
    in
    next := !next + List.length batch;
    let results =
      Pool.map ~domains:jobs
        (fun s ->
          let scenario = Scenario.generate ~quick ~seed:s () in
          Telemetry.with_span tm "fuzz.scenario" (fun () ->
              Differential.run ~quick ~sim scenario))
        batch
    in
    List.iter2
      (fun s result ->
        if not !stopped then
          let report =
            match result with
            | Ok r -> r
            | Error (e : Pool.job_error) ->
                (* The differential already catches per-strategy crashes;
                   an exception that still escaped (generator, oracle) is
                   itself a finding, not a reason to stop the corpus. *)
                {
                  Differential.scenario = Scenario.generate ~quick ~seed:s ();
                  placed = [];
                  timings = [];
                  infeasible = [];
                  milp_checked = false;
                  sim_checked = false;
                  failures =
                    [
                      Differential.Crash
                        { strategy = "harness"; exn = e.Pool.message };
                    ];
                }
          in
          consume s report)
      batch results
  done;
  let acc = !summary in
  let hits1, misses1 = Lemur_placer.Strategy.variant_cache_stats () in
  {
    acc with
    strategy_times =
      List.sort (fun (a, _) (b, _) -> compare a b) acc.strategy_times;
    cache_hits = hits1 - hits0;
    cache_misses = misses1 - misses0;
    classifier =
      (let c1 = Lemur_classifier.Classifier.stats () in
       {
         Lemur_classifier.Classifier.linear_lookups =
           c1.Lemur_classifier.Classifier.linear_lookups
           - cls0.Lemur_classifier.Classifier.linear_lookups;
         tss_lookups =
           c1.Lemur_classifier.Classifier.tss_lookups
           - cls0.Lemur_classifier.Classifier.tss_lookups;
         computed_lookups =
           c1.Lemur_classifier.Classifier.computed_lookups
           - cls0.Lemur_classifier.Classifier.computed_lookups;
         remainder_hits =
           c1.Lemur_classifier.Classifier.remainder_hits
           - cls0.Lemur_classifier.Classifier.remainder_hits;
         remainder_misses =
           c1.Lemur_classifier.Classifier.remainder_misses
           - cls0.Lemur_classifier.Classifier.remainder_misses;
       });
    failures = List.rev acc.failures;
    digest = Digest.to_hex (Digest.string (Buffer.contents digest_buf));
  }

let ok s = s.failures = []

let pp_summary ppf s =
  List.iter
    (fun fr ->
      Fmt.pf ppf "@[<v>FAIL seed %d:@,%a@,%a@," fr.fr_seed Scenario.pp
        fr.fr_report.Differential.scenario
        (Fmt.list ~sep:Fmt.cut Differential.pp_failure)
        fr.fr_report.Differential.failures;
      (match fr.fr_shrunk with
      | Some small when small <> fr.fr_report.Differential.scenario ->
          Fmt.pf ppf "shrunk to:@,%a@," Scenario.pp small
      | _ -> ());
      Fmt.pf ppf "@]")
    s.failures;
  Fmt.pf ppf
    "%d scenario(s): %d placements checked, %d fully infeasible, %d MILP \
     cross-checks, %d sim runs with engine convergence checks, %d \
     failure(s)@."
    s.scenarios s.placements_checked s.all_infeasible s.milp_checked
    s.sim_checked (List.length s.failures);
  Fmt.pf ppf "fuzz digest: %s@." s.digest;
  (* The perf canary: solve time per strategy and placer cache traffic,
     so a hot-path regression shows up in every fuzz run's output. *)
  if s.strategy_times <> [] then
    Fmt.pf ppf "solve time: %a@."
      (Fmt.list ~sep:Fmt.comma (fun ppf (name, t) ->
           Fmt.pf ppf "%s %.2fs" name t))
      s.strategy_times;
  let lookups = s.cache_hits + s.cache_misses in
  if lookups > 0 then
    Fmt.pf ppf
      "placer variant cache: %d hits / %d misses (%.1f%% hit rate)@."
      s.cache_hits s.cache_misses
      (100.0 *. float_of_int s.cache_hits /. float_of_int lookups);
  Lemur_classifier.Classifier.pp_stats_delta ppf
    ( {
        Lemur_classifier.Classifier.linear_lookups = 0;
        tss_lookups = 0;
        computed_lookups = 0;
        remainder_hits = 0;
        remainder_misses = 0;
      },
      s.classifier )
