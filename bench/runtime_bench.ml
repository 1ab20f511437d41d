(* The runtime-control-loop bench behind `dune exec bench/main.exe -- runtime`:
   drives generated traces through the engine under each policy (oracle
   on), writes BENCH_runtime.json, and gates the policy tradeoffs the
   runtime exists to provide:

   - determinism: two identical immediate-policy runs must produce the
     same report digest;
   - every intermediate deployment must pass the placement oracle (the
     engine errors out otherwise);
   - debouncing must pay for itself: >= 2x fewer reconfigurations than
     the immediate policy, for a bounded violation-seconds premium;
   - forecasting must pay for itself: over a diurnal + flash-crowd
     corpus, the proactive policy accrues no more violation-seconds
     than debounced while issuing at most half of immediate's
     reconfigurations;
   - the move budget must hold: every non-exempt reconfiguration in a
     budgeted run re-homes at most [budget] chains, the capped path is
     actually exercised, and the whole budgeted corpus is
     digest-deterministic at any [-j].

   Reconfiguration and violation counts are deterministic given the
   seeds; decision-latency numbers are wall clock and reported for
   trending only. [--quick] shrinks every corpus for CI smoke. *)

module Trace = Lemur_runtime.Trace
module Engine = Lemur_runtime.Engine
module Policy = Lemur_runtime.Policy
module Report = Lemur_runtime.Report
module Json = Lemur_telemetry.Json

let default_seed = 11

(* The debounced policy may spend at most this many extra chain-seconds
   in violation compared to immediate, per chain-second immediate spends
   plus an absolute floor — "bounded" from the acceptance criteria made
   concrete. *)
let violation_premium_abs = 0.10
let violation_premium_rel = 1.5

let latency_stats latencies =
  match latencies with
  | [] -> (0.0, 0.0, 0.0)
  | l ->
      let sorted = List.sort Float.compare l in
      let n = List.length sorted in
      let mean = List.fold_left ( +. ) 0.0 sorted /. float_of_int n in
      let nth p = List.nth sorted (min (n - 1) (p * n / 100)) in
      (mean, nth 50, nth 99)

let policy_json name (r : Report.t) digest =
  let mean, p50, p99 = latency_stats r.Report.decision_latency_s in
  Json.Obj
    [
      ("policy", Json.String name);
      ("reconfigs", Json.Int r.Report.reconfigs);
      ("events_applied", Json.Int r.Report.events_applied);
      ("events_rejected", Json.Int r.Report.events_rejected);
      ("epochs", Json.Int r.Report.epochs);
      ("violation_s", Json.Float r.Report.total_violation_s);
      ("marginal_bits", Json.Float r.Report.total_marginal_bits);
      ("decision_latency_mean_s", Json.Float mean);
      ("decision_latency_p50_s", Json.Float p50);
      ("decision_latency_p99_s", Json.Float p99);
      ("digest", Json.String digest);
      ( "stop",
        Json.String
          (match r.Report.stop with
          | Report.Completed -> "completed"
          | Report.Aborted _ -> "aborted") );
    ]

(* ------------------------------------------------------------------ *)
(* Proactive corpus: the forecasting story. Diurnal ramps and flash
   crowds, each driven under immediate / debounced / proactive; gates
   are on corpus sums. *)

let corpus_specs ~quick =
  let diurnal = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let flash = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  List.map (fun s -> (Trace.Diurnal, s, 40)) diurnal
  @ List.map (fun s -> (Trace.Flash_crowd, s, 50)) flash

let corpus_policies =
  [
    ("immediate", Policy.Immediate);
    ("debounced", Policy.default_debounced);
    ("proactive", Policy.default_proactive);
  ]

type corpus_row = {
  cr_kind : Trace.kind;
  cr_seed : int;
  cr_results : (string * Report.t) list;  (* in corpus_policies order *)
}

let run_corpus ~quick ~drive_trace =
  let rows =
    List.map
      (fun (kind, seed, events) ->
        let trace = Trace.generate ~events ~kind ~seed () in
        let results =
          List.map
            (fun (name, p) ->
              match drive_trace ?move_budget:None ~seed p trace with
              | Ok r -> (name, r)
              | Error e ->
                  failwith
                    (Printf.sprintf "%s seed %d under %s: %s"
                       (Trace.kind_to_string kind) seed name e))
            corpus_policies
        in
        { cr_kind = kind; cr_seed = seed; cr_results = results })
      (corpus_specs ~quick)
  in
  let total name f =
    List.fold_left (fun acc row -> acc +. f (List.assoc name row.cr_results)) 0.0 rows
  in
  let total_i name f =
    List.fold_left (fun acc row -> acc + f (List.assoc name row.cr_results)) 0 rows
  in
  let viol name = total name (fun r -> r.Report.total_violation_s) in
  let reconfigs name = total_i name (fun r -> r.Report.reconfigs) in
  let proactive_viol = viol "proactive"
  and debounced_viol = viol "debounced"
  and proactive_rc = reconfigs "proactive"
  and immediate_rc = reconfigs "immediate" in
  let viol_ok = proactive_viol <= debounced_viol in
  let rc_ok = 2 * proactive_rc <= immediate_rc in
  let table =
    Lemur_util.Texttable.create
      ~headers:
        [
          "trace"; "immediate rc/viol"; "debounced rc/viol";
          "proactive rc/viol";
        ]
  in
  List.iter
    (fun row ->
      let cell name =
        let r = List.assoc name row.cr_results in
        Printf.sprintf "%d / %.4f" r.Report.reconfigs
          r.Report.total_violation_s
      in
      Lemur_util.Texttable.add_row table
        [
          Printf.sprintf "%s:%d" (Trace.kind_to_string row.cr_kind) row.cr_seed;
          cell "immediate"; cell "debounced"; cell "proactive";
        ])
    rows;
  Lemur_util.Texttable.print table;
  let gates =
    [
      Bench_gate.gate "proactive-violation" viol_ok
        (Printf.sprintf "%.4f chain-s, debounced %.4f" proactive_viol
           debounced_viol);
      Bench_gate.gate "proactive-reconfigs" rc_ok
        (Printf.sprintf "%d, at most half of immediate's %d" proactive_rc
           immediate_rc);
    ]
  in
  let json =
    Json.Obj
      [
        ( "traces",
          Json.List
            (List.map
               (fun row ->
                 Json.Obj
                   [
                     ("kind", Json.String (Trace.kind_to_string row.cr_kind));
                     ("seed", Json.Int row.cr_seed);
                     ( "policies",
                       Json.List
                         (List.map
                            (fun (name, r) ->
                              policy_json name r (Report.digest r))
                            row.cr_results) );
                   ])
               rows) );
        ("proactive_violation_s", Json.Float proactive_viol);
        ("debounced_violation_s", Json.Float debounced_viol);
        ("proactive_reconfigs", Json.Int proactive_rc);
        ("immediate_reconfigs", Json.Int immediate_rc);
        ("violation_ok", Json.Bool viol_ok);
        ("reconfig_ratio_ok", Json.Bool rc_ok);
      ]
  in
  (gates, json)

(* ------------------------------------------------------------------ *)
(* Move-budget corpus: traces whose re-placements re-home chains,
   driven under a budget. Gates: every non-exempt Reconfigured entry
   respects the budget, the capped path fires at least once across the
   corpus, and the digests are identical whether the corpus is
   evaluated on 1 domain or [jobs]. *)

let budget_specs ~quick =
  let specs =
    [
      (Trace.Failure_burst, 2, 50, 0);
      (Trace.Failure_burst, 7, 50, 0);
      (Trace.Churn, 5, 50, 0);
      (Trace.Failure_burst, 2, 50, 1);
    ]
  in
  if quick then [ List.hd specs; List.nth specs 3 ] else specs

let run_budget ~quick ~jobs ~drive_trace =
  let specs = budget_specs ~quick in
  let eval (kind, seed, events, budget) =
    let trace = Trace.generate ~events ~kind ~seed () in
    match
      drive_trace ?move_budget:(Some budget) ~seed Policy.Immediate trace
    with
    | Ok r -> r
    | Error e ->
        failwith
          (Printf.sprintf "budgeted %s seed %d: %s"
             (Trace.kind_to_string kind) seed e)
  in
  let run_pool domains =
    let reports =
      List.map
        (function
          | Ok r -> r
          | Error (e : Lemur_util.Pool.job_error) ->
              failwith e.Lemur_util.Pool.message)
        (Lemur_util.Pool.map ~domains eval specs)
    in
    let digests = String.concat "," (List.map Report.digest reports) in
    (reports, Digest.to_hex (Digest.string digests))
  in
  let (reports, _), determinism =
    Bench_gate.determinism ~name:"move-budget-determinism" ~jobs run_pool
  in
  let cap_respected =
    List.for_all2
      (fun (_, _, _, budget) (r : Report.t) ->
        List.for_all
          (function
            | Report.Reconfigured { moves; exempt = false; _ } ->
                moves <= budget
            | _ -> true)
          r.Report.journal)
      specs reports
  in
  let capped_total =
    List.fold_left
      (fun acc (r : Report.t) -> acc + r.Report.moves_capped)
      0 reports
  in
  let capped_fired = capped_total > 0 in
  List.iter2
    (fun (kind, seed, _, budget) (r : Report.t) ->
      Printf.printf
        "move budget %d on %s:%d: %d reconfigs, %d chains moved, %d capped\n"
        budget (Trace.kind_to_string kind) seed r.Report.reconfigs
        r.Report.moves_total r.Report.moves_capped)
    specs reports;
  let gates =
    [
      Bench_gate.gate "move-budget-cap" cap_respected
        (if cap_respected then "every non-exempt reconfiguration within budget"
         else "a reconfiguration moved more chains than its budget");
      Bench_gate.gate "move-budget-capped-path" capped_fired
        (Printf.sprintf "%d capped reconfiguration(s)" capped_total);
      determinism;
    ]
  in
  let json =
    Json.Obj
      [
        ( "runs",
          Json.List
            (List.map2
               (fun (kind, seed, events, budget) (r : Report.t) ->
                 Json.Obj
                   [
                     ("kind", Json.String (Trace.kind_to_string kind));
                     ("seed", Json.Int seed);
                     ("events", Json.Int events);
                     ("budget", Json.Int budget);
                     ("reconfigs", Json.Int r.Report.reconfigs);
                     ("moves_total", Json.Int r.Report.moves_total);
                     ("moves_capped", Json.Int r.Report.moves_capped);
                     ("digest", Json.String (Report.digest r));
                   ])
               specs reports) );
        ("cap_respected", Json.Bool cap_respected);
        ("capped_fired", Json.Bool capped_fired);
        ("jobs", Json.Int jobs);
        ("digests_equal", Json.Bool determinism.Bench_gate.ok);
      ]
  in
  (gates, json)

(* ------------------------------------------------------------------ *)

(* Incremental re-placement vs from-scratch: a dedicated demand-churn
   trace — longer chains than the policy trace, so a re-solve actually
   has pattern search and coalescing to redo. *)
let resolve_trace ~quick ~seed =
  let topo =
    {
      Trace.servers = 3;
      cores_per_socket = 8;
      smartnic = true;
      ofswitch = false;
      no_pisa = false;
      metron = false;
    }
  in
  let chains =
    [
      "r0 slo(tmin='2.0Gbps', tmax='40Gbps') = ACL -> Monitor -> NAT -> \
       Encrypt -> Tunnel -> IPv4Fwd";
      "r1 slo(tmin='1.5Gbps', tmax='40Gbps') = BPF -> ACL -> Monitor -> NAT \
       -> Tunnel -> IPv4Fwd";
      "r2 slo(tmin='1.0Gbps', tmax='40Gbps') = Monitor -> ACL -> NAT -> \
       Encrypt -> IPv4Fwd";
    ]
  in
  let prng = Lemur_util.Prng.create ~seed in
  let t = ref 0.0 in
  let n = if quick then 40 else 120 in
  let events =
    List.init n (fun i ->
        t := !t +. 0.005;
        let chain_id = Printf.sprintf "r%d" (i mod 3) in
        let rate = float_of_int (5 + Lemur_util.Prng.int prng 200) *. 1e8 in
        { Trace.at = !t; action = Trace.Traffic { chain_id; rate } })
  in
  {
    Trace.seed = None;
    topo;
    chains;
    windows = [];
    events;
    horizon = !t +. 0.01;
  }

let main args =
  let o = Bench_gate.parse ~seed:default_seed "runtime" args in
  let quick = o.Bench_gate.quick in
  let seed = Option.get o.Bench_gate.seed in
  let events = if quick then 60 else 200 in
  let trace = Trace.generate ~events ~seed () in
  Printf.printf
    "## runtime: control-loop policies on trace seed %d (%d events, %d \
     chains, %.3fs horizon)\n"
    seed events
    (List.length trace.Trace.chains)
    trace.Trace.horizon;
  let drive_trace ?move_budget ~seed policy trace =
    let cfg =
      Engine.default_config ~policy ~seed
        ~check:Lemur_check.Runtime_check.checker ?move_budget ()
    in
    match Engine.run cfg trace with
    | Ok (report, _) -> Ok report
    | Error e -> Error (Engine.error_to_string e)
  in
  let drive policy = drive_trace ~seed policy trace in
  let run_all =
    let policies =
      [
        ("immediate", Policy.Immediate);
        ("debounced", Policy.default_debounced);
        ("scheduled", Policy.Scheduled);
      ]
    in
    List.fold_left
      (fun acc (name, p) ->
        Result.bind acc (fun rs ->
            match drive p with
            | Ok r -> Ok (rs @ [ (name, r) ])
            | Error e -> Error (name ^ ": " ^ e)))
      (Ok []) policies
  in
  (* The same demand-churn trace driven twice under the immediate policy
     (oracle on), caches dropped before each run so neither inherits
     warmth. The incremental engine keeps the placer's variant cache
     across re-placements (demand events leave every chain clean, so the
     whole pattern search replays from cache); the from-scratch one
     clears it inside every timed decision. Placements — and therefore
     report digests — must be byte-identical: the caches only change how
     fast the same answer is derived. *)
  let drive_incremental ~incremental =
    Lemur_placer.Memo.clear ();
    Lemur_placer.Strategy.clear_variant_cache ();
    let cfg =
      Engine.default_config ~policy:Policy.Immediate ~seed
        ~check:Lemur_check.Runtime_check.checker ~incremental ()
    in
    match Engine.run cfg (resolve_trace ~quick ~seed) with
    | Ok (report, _) -> Ok report
    | Error e -> Error (Engine.error_to_string e)
  in
  match run_all with
  | Error e -> Bench_gate.finish o [ Bench_gate.gate "policies" false e ] []
  | Ok results ->
      let digest name = Report.digest (List.assoc name results) in
      (* determinism gate: replay immediate and compare digests *)
      let replay_digest =
        match drive Policy.Immediate with
        | Ok r -> Report.digest r
        | Error e -> e
      in
      let table =
        Lemur_util.Texttable.create
          ~headers:
            [
              "policy"; "reconfigs"; "violation (chain-s)"; "marginal (Gbit)";
              "decision mean (ms)";
            ]
      in
      List.iter
        (fun (name, (r : Report.t)) ->
          let mean, _, _ = latency_stats r.Report.decision_latency_s in
          Lemur_util.Texttable.add_row table
            [
              name;
              string_of_int r.Report.reconfigs;
              Printf.sprintf "%.4f" r.Report.total_violation_s;
              Printf.sprintf "%.2f" (r.Report.total_marginal_bits /. 1e9);
              Printf.sprintf "%.2f" (mean *. 1000.0);
            ])
        results;
      Lemur_util.Texttable.print table;
      let imm = List.assoc "immediate" results in
      let deb = List.assoc "debounced" results in
      let deterministic = String.equal (digest "immediate") replay_digest in
      let incremental_gate, incremental_json =
        match
          (drive_incremental ~incremental:true,
           drive_incremental ~incremental:false)
        with
        | Error e, _ | _, Error e ->
            ( Bench_gate.gate "incremental" false e,
              Json.Obj [ ("error", Json.String e) ] )
        | Ok inc, Ok scratch ->
            let inc_mean, _, _ = latency_stats inc.Report.decision_latency_s in
            let scratch_mean, _, _ =
              latency_stats scratch.Report.decision_latency_s
            in
            let resolve_speedup =
              if inc_mean > 0.0 then scratch_mean /. inc_mean else 0.0
            in
            let digests_equal =
              String.equal (Report.digest inc) (Report.digest scratch)
            in
            Printf.printf
              "incremental re-placement: mean decision %.2f ms vs %.2f ms \
               from scratch (%.2fx)\n"
              (inc_mean *. 1000.0) (scratch_mean *. 1000.0) resolve_speedup;
            ( Bench_gate.gate "incremental" digests_equal
                (Printf.sprintf "report digest %s %s from scratch"
                   (Report.digest inc)
                   (if digests_equal then "identical to" else "DIFFERS")),
              Json.Obj
                [
                  ("reconfigs", Json.Int inc.Report.reconfigs);
                  ("incremental_decision_mean_s", Json.Float inc_mean);
                  ("scratch_decision_mean_s", Json.Float scratch_mean);
                  ("resolve_speedup", Json.Float resolve_speedup);
                  ("digests_equal", Json.Bool digests_equal);
                  ("incremental_digest", Json.String (Report.digest inc));
                ] )
      in
      let ratio_ok = deb.Report.reconfigs * 2 <= imm.Report.reconfigs in
      let budget =
        violation_premium_abs
        +. (violation_premium_rel *. imm.Report.total_violation_s)
      in
      let premium_ok = deb.Report.total_violation_s <= budget in
      let proactive_gates, proactive_json = run_corpus ~quick ~drive_trace in
      let budget_gates, budget_json =
        run_budget ~quick ~jobs:o.Bench_gate.jobs ~drive_trace
      in
      Bench_gate.finish o
        ([
           Bench_gate.gate "determinism" deterministic
             (Printf.sprintf "immediate report digest %s, replay %s"
                (digest "immediate") replay_digest);
           Bench_gate.gate "reconfig-ratio" ratio_ok
             (Printf.sprintf "immediate %d, debounced %d (needs >= 2x fewer)"
                imm.Report.reconfigs deb.Report.reconfigs);
           Bench_gate.gate "violation-premium" premium_ok
             (Printf.sprintf "debounced %.4f chain-s, budget %.4f"
                deb.Report.total_violation_s budget);
           incremental_gate;
         ]
        @ proactive_gates @ budget_gates)
        [
          ("trace_events", Json.Int events);
          ("horizon_s", Json.Float trace.Trace.horizon);
          ( "policies",
            Json.List
              (List.map
                 (fun (name, r) -> policy_json name r (digest name))
                 results) );
          ("deterministic", Json.Bool deterministic);
          ("reconfig_ratio_ok", Json.Bool ratio_ok);
          ("violation_premium_ok", Json.Bool premium_ok);
          ("incremental", incremental_json);
          ("proactive_corpus", proactive_json);
          ("move_budget", budget_json);
        ]
