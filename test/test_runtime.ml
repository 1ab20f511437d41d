(* Tests for the online control loop (lib/runtime): trace round-trips,
   policy parsing, forecasting, the move budget, and the engine's
   determinism / policy / oracle contracts. *)
module Trace = Lemur_runtime.Trace
module Policy = Lemur_runtime.Policy
module Engine = Lemur_runtime.Engine
module Report = Lemur_runtime.Report
module Forecast = Lemur_runtime.Forecast

let contains ~needle hay =
  let nh = String.length needle and lh = String.length hay in
  let rec scan i =
    if i + nh > lh then false
    else String.equal (String.sub hay i nh) needle || scan (i + 1)
  in
  nh = 0 || scan 0

let run_ok ?(policy = Policy.Immediate) ?(seed = 11) ?check ?move_budget trace =
  let cfg = Engine.default_config ~policy ~seed ?check ?move_budget () in
  match Engine.run cfg trace with
  | Ok (report, d) -> (report, d)
  | Error e -> Alcotest.failf "engine failed: %s" (Engine.error_to_string e)

(* A small handcrafted trace: two chains, one smartnic, a fail/recover
   pair, a traffic ramp, and one bad event the model must reject. *)
let hand_trace () =
  {
    Trace.seed = None;
    topo =
      {
        Trace.servers = 2;
        cores_per_socket = 8;
        smartnic = true;
        ofswitch = false;
        no_pisa = false;
        metron = false;
      };
    chains =
      [
        "c0 slo(tmin='1.0Gbps', tmax='100Gbps') = ACL -> NAT";
        "c1 slo(tmin='0.5Gbps', tmax='100Gbps') = Tunnel -> IPv4Fwd";
      ];
    windows = [];
    events =
      [
        { Trace.at = 0.010; action = Trace.Traffic { chain_id = "c0"; rate = 2e9 } };
        { Trace.at = 0.020; action = Trace.Fail Lemur.Failover.Smartnic_failed };
        { Trace.at = 0.030; action = Trace.Remove_chain "ghost" };
        { Trace.at = 0.040; action = Trace.Recover Lemur.Failover.Smartnic_failed };
      ];
    horizon = 0.050;
  }

let test_policy_parse () =
  let roundtrip s =
    match Policy.parse s with
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
    | Ok p -> Policy.name p
  in
  Alcotest.(check string) "immediate" "immediate" (roundtrip "immediate");
  Alcotest.(check string) "debounced" "debounced" (roundtrip "debounced");
  Alcotest.(check string) "scheduled" "scheduled" (roundtrip "scheduled");
  (match Policy.parse "debounced:50:10" with
  | Ok (Policy.Debounced { budget_s; cooldown_s }) ->
      Alcotest.(check (float 1e-9)) "budget ms" 0.050 budget_s;
      Alcotest.(check (float 1e-9)) "cooldown ms" 0.010 cooldown_s
  | Ok _ -> Alcotest.fail "expected debounced"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* to_string round-trips through parse *)
  List.iter
    (fun p ->
      match Policy.parse (Policy.to_string p) with
      | Ok p' ->
          Alcotest.(check string) "round-trip" (Policy.to_string p)
            (Policy.to_string p')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    [ Policy.Immediate; Policy.default_debounced; Policy.Scheduled ];
  match Policy.parse "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus policy must not parse"

let test_policy_parse_strict () =
  (* A trailing or doubled ':' is an empty component: rejected with the
     1-based column of the offending position, never silently
     defaulted. *)
  List.iter
    (fun (s, col) ->
      match Policy.parse s with
      | Ok p ->
          Alcotest.failf "%S must not parse (got %s)" s (Policy.to_string p)
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error names column %d" s col)
            true
            (contains ~needle:(Printf.sprintf "column %d" col) e))
    [
      ("debounced:10:", 14);
      ("debounced::20", 11);
      (":immediate", 1);
      ("proactive:20:", 14);
      ("proactive:20:holt:0.5:", 23);
    ];
  (* the proactive parameterised forms *)
  (match Policy.parse "proactive:40:ewma:0.25" with
  | Ok (Policy.Proactive { horizon_s; model = Forecast.Ewma { alpha }; _ }) ->
      Alcotest.(check (float 1e-12)) "horizon" 0.040 horizon_s;
      Alcotest.(check (float 0.0)) "alpha" 0.25 alpha
  | Ok p -> Alcotest.failf "wrong shape: %s" (Policy.to_string p)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Policy.parse "proactive:20:holt:0.5:0.3:0.2" with
  | Ok (Policy.Proactive { headroom; _ }) ->
      Alcotest.(check (float 0.0)) "headroom" 0.2 headroom
  | Ok p -> Alcotest.failf "wrong shape: %s" (Policy.to_string p)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_debounce_decay () =
  (* The accumulator decays with a 0.2 s half-life: violation noted at
     t=0 is nearly gone two seconds later, so a gap-heavy trace never
     crosses the budget that the same violations packed densely would
     cross immediately. *)
  let policy = Policy.Debounced { budget_s = 0.03; cooldown_s = 0.0 } in
  let dense = Policy.initial_state () in
  Policy.note_violation dense ~now:0.0 0.05;
  Alcotest.(check bool) "dense violations trip the budget" true
    (Policy.decide policy dense ~now:0.005 Policy.Traffic_shift);
  let stale = Policy.initial_state () in
  Policy.note_violation stale ~now:0.0 0.05;
  Alcotest.(check bool) "stale violations decayed away" false
    (Policy.decide policy stale ~now:2.0 Policy.Traffic_shift);
  (* the same 0.05 total spread over 10 s of gaps never accumulates *)
  let sparse = Policy.initial_state () in
  for i = 0 to 4 do
    Policy.note_violation sparse ~now:(float_of_int i *. 2.0) 0.01
  done;
  Alcotest.(check bool) "gap-heavy trace stays under budget" false
    (Policy.decide policy sparse ~now:8.005 Policy.Traffic_shift)

(* The cases Monitor's old private rule was pinned by, now on the one
   shared verdict. [slo ~t_min ~d_max] with [~slack:0.], as Monitor
   calls it. *)
let verdict ~offered ~delivered ~batches ~t_min ~d_max =
  Lemur_slo.Slo.verdict ~slack:0.0
    (Lemur_slo.Slo.make ~t_min ~d_max ())
    ~offered ~delivered ~p99:0.0 ~batches

let test_monitor_starved_chain () =
  (* A chain that delivered no batches at all is the worst latency
     case, not a healthy one: with a finite d_max and offered traffic
     it must be latency-violated even though no p99 sample exists. *)
  let v = verdict ~offered:1e9 ~delivered:0.0 ~batches:0 ~t_min:2e9 ~d_max:0.001 in
  Alcotest.(check bool) "starved chain is throughput-violated" false
    v.Lemur_slo.Slo.throughput_met;
  Alcotest.(check bool) "starved chain is latency-violated" false
    v.Lemur_slo.Slo.latency_met;
  (* no latency SLO -> nothing to violate *)
  let free =
    verdict ~offered:1e9 ~delivered:0.0 ~batches:0 ~t_min:2e9 ~d_max:infinity
  in
  Alcotest.(check bool) "no d_max, no latency violation" true
    free.Lemur_slo.Slo.latency_met;
  (* idle chain: no offered traffic means nothing was starved *)
  let idle = verdict ~offered:0.0 ~delivered:0.0 ~batches:0 ~t_min:2e9 ~d_max:0.001 in
  Alcotest.(check bool) "idle chain not latency-violated" true
    idle.Lemur_slo.Slo.latency_met

let test_monitor_marginal_capped () =
  (* Marginal throughput is credited against min(offered, t_min): a
     chain offered less than its floor is not in deficit for traffic
     that never arrived, and delivery above the offered load counts as
     margin. *)
  let v =
    verdict ~offered:1e9 ~delivered:1.5e9 ~batches:10 ~t_min:2e9 ~d_max:infinity
  in
  Alcotest.(check bool) "not throughput-violated below offered floor" true
    v.Lemur_slo.Slo.throughput_met;
  Alcotest.(check (float 1.0)) "marginal over the offered-capped target"
    0.5e9 v.Lemur_slo.Slo.marginal;
  let sat =
    verdict ~offered:3e9 ~delivered:2.5e9 ~batches:10 ~t_min:2e9 ~d_max:infinity
  in
  Alcotest.(check (float 1.0)) "t_min caps the target when offered exceeds"
    0.5e9 sat.Lemur_slo.Slo.marginal

(* Sim tallies [dataplane.slo.*] from the verdict the monitor charges,
   on the same numbers, so over a replay the tallies and the journal
   count the same violations, and every sampled chain-epoch gets one
   tally per half. Diurnal traces keep one chain set throughout, so
   there the chain-epoch count is epochs x chains. *)
let test_slo_tallies_match_journal () =
  let replay kind =
    let tm = Lemur_telemetry.Telemetry.create () in
    let prev = Lemur_telemetry.Telemetry.current () in
    Lemur_telemetry.Telemetry.set_current tm;
    let report, _ =
      Fun.protect
        ~finally:(fun () -> Lemur_telemetry.Telemetry.set_current prev)
        (fun () -> run_ok (Trace.generate ~events:200 ~kind ~seed:11 ()))
    in
    let count name =
      match
        List.find_opt
          (fun c -> Lemur_telemetry.Counter.name c = "dataplane.slo." ^ name)
          (Lemur_telemetry.Telemetry.counters tm)
      with
      | Some c -> Lemur_telemetry.Counter.value c
      | None -> 0
    in
    let journaled kind =
      List.length
        (List.filter
           (function
             | Report.Violation v -> String.equal v.kind kind | _ -> false)
           report.Report.journal)
    in
    let label = Trace.kind_to_string kind in
    Alcotest.(check int) (label ^ ": throughput violations") (journaled "throughput")
      (count "throughput_violations");
    Alcotest.(check int) (label ^ ": latency violations") (journaled "latency")
      (count "latency_violations");
    let thr = count "throughput_ok" + count "throughput_violations" in
    Alcotest.(check int) (label ^ ": one tally per half")
      thr (count "latency_ok" + count "latency_violations");
    Alcotest.(check bool) (label ^ ": every epoch sampled") true
      (thr >= report.Report.epochs);
    (report, thr)
  in
  let churn, _ = replay Trace.Churn in
  Alcotest.(check bool) "churn charges violations" true
    (churn.Report.total_violation_s > 0.0);
  let diurnal, chain_epochs = replay Trace.Diurnal in
  Alcotest.(check int) "diurnal: tallies = chain-epochs"
    (diurnal.Report.epochs * List.length diurnal.Report.chains)
    chain_epochs

let test_forecast_models () =
  (* EWMA converges to a constant signal and forecasts flat. *)
  let ewma = Forecast.create (Forecast.Ewma { alpha = 0.5 }) in
  for i = 0 to 19 do
    Forecast.observe ewma ~at:(float_of_int i *. 0.01) 5e9
  done;
  Alcotest.(check bool) "ewma converges to the level" true
    (Float.abs (Forecast.predict ewma ~horizon_s:0.05 -. 5e9) < 1e6);
  (* Holt-Winters extrapolates a ramp beyond the last sample. *)
  let holt = Forecast.create (Forecast.Holt_winters { alpha = 0.5; beta = 0.3 }) in
  for i = 0 to 19 do
    (* 1 Gbps per 10 ms = 100 Gbps/s slope *)
    Forecast.observe holt ~at:(float_of_int i *. 0.01)
      (1e9 +. (float_of_int i *. 1e9))
  done;
  let last = 20e9 in
  Alcotest.(check bool) "holt extrapolates above the last sample" true
    (Forecast.predict holt ~horizon_s:0.02 > last);
  (* the flat model lags the same ramp *)
  let ewma_ramp = Forecast.create (Forecast.Ewma { alpha = 0.5 }) in
  for i = 0 to 19 do
    Forecast.observe ewma_ramp ~at:(float_of_int i *. 0.01)
      (1e9 +. (float_of_int i *. 1e9))
  done;
  Alcotest.(check bool) "trend model beats flat model on a ramp" true
    (Forecast.mean_abs_error holt < Forecast.mean_abs_error ewma_ramp);
  (* predictions never go negative *)
  let falling = Forecast.create (Forecast.Holt_winters { alpha = 1.0; beta = 1.0 }) in
  Forecast.observe falling ~at:0.0 2e9;
  Forecast.observe falling ~at:0.01 1e8;
  Alcotest.(check bool) "clamped nonnegative" true
    (Forecast.predict falling ~horizon_s:1.0 >= 0.0)

let test_generator_kinds () =
  (* Every generator family is deterministic per seed and a fixed point
     of the text round-trip, floats bit-exact. *)
  List.iter
    (fun kind ->
      let name = Trace.kind_to_string kind in
      let a = Trace.generate ~events:25 ~kind ~seed:9 () in
      let b = Trace.generate ~events:25 ~kind ~seed:9 () in
      Alcotest.(check string)
        (name ^ ": same seed, same trace")
        (Trace.to_string a) (Trace.to_string b);
      let text = Trace.to_string a in
      (match Trace.parse text with
      | Error e ->
          Alcotest.failf "%s: re-parse failed: %s" name
            (Trace.parse_error_to_string e)
      | Ok a' ->
          Alcotest.(check string)
            (name ^ ": print/parse/print fixpoint")
            text (Trace.to_string a');
          List.iter2
            (fun (e : Trace.event) (e' : Trace.event) ->
              Alcotest.(check bool)
                (name ^ ": event round-trips bit-exactly")
                true
                (Float.equal e.Trace.at e'.Trace.at
                && e.Trace.action = e'.Trace.action))
            a.Trace.events a'.Trace.events);
      (match Trace.kind_of_string name with
      | Ok k -> Alcotest.(check bool) (name ^ " name round-trip") true (k = kind)
      | Error e -> Alcotest.failf "kind_of_string %s: %s" name e))
    Trace.all_kinds

let test_shrink_terminates () =
  (* shrink_events must terminate on every generator family and return
     the greedy fixpoint of its predicate. *)
  List.iter
    (fun kind ->
      let trace = Trace.generate ~events:20 ~kind ~seed:4 () in
      let fails t = List.length t.Trace.events >= 5 in
      let shrunk = Lemur_check.Runtime_check.shrink_events ~fails trace in
      Alcotest.(check int)
        (Trace.kind_to_string kind ^ ": shrunk to the minimal failing size")
        5
        (List.length shrunk.Trace.events);
      Alcotest.(check bool) "still fails" true (fails shrunk))
    Trace.all_kinds

let test_proactive_engine () =
  (* Over a corpus of diurnal ramps and flash crowds (oracle on), the
     proactive policy accrues no more violation-seconds than debounced
     while issuing at most half of immediate's reconfigurations. On
     flash-crowd seed 2 its forecast alarm fires (journaled as
     "forecast"), and it reports per-chain forecast error. *)
  let corpus =
    [
      (Trace.Diurnal, 1, 40); (Trace.Diurnal, 2, 40);
      (Trace.Flash_crowd, 1, 50); (Trace.Flash_crowd, 2, 50);
    ]
  in
  let runs =
    List.map
      (fun (kind, seed, events) ->
        let trace = Trace.generate ~events ~kind ~seed () in
        let run policy =
          fst (run_ok ~policy ~seed ~check:Lemur_check.Runtime_check.checker trace)
        in
        ( run Policy.Immediate,
          run Policy.default_debounced,
          run Policy.default_proactive ))
      corpus
  in
  let total pick =
    List.fold_left
      (fun (rc, viol) run ->
        let (r : Report.t) = pick run in
        (rc + r.Report.reconfigs, viol +. r.Report.total_violation_s))
      (0, 0.0) runs
  in
  let imm_rc, imm_viol = total (fun (i, _, _) -> i)
  and deb_rc, deb_viol = total (fun (_, d, _) -> d)
  and pro_rc, pro_viol = total (fun (_, _, p) -> p) in
  Alcotest.(check (list int)) "reconfigs: immediate, debounced, proactive"
    [ 180; 7; 18 ] [ imm_rc; deb_rc; pro_rc ];
  Alcotest.(check (list (float 1e-9)))
    "violation-seconds: immediate, debounced, proactive"
    [ 0.301; 0.340; 0.319 ] [ imm_viol; deb_viol; pro_viol ];
  Alcotest.(check bool) "proactive no worse than debounced" true
    (pro_viol <= deb_viol);
  Alcotest.(check bool) "at most half of immediate's reconfigs" true
    (2 * pro_rc <= imm_rc);
  let _, _, pro = List.nth runs 3 in
  Alcotest.(check bool) "forecast trigger fired" true
    (List.exists
       (function
         | Report.Reconfigured { reason; _ } -> contains ~needle:"forecast" reason
         | _ -> false)
       pro.Report.journal);
  Alcotest.(check bool) "forecast error reported per chain" true
    (pro.Report.forecast_mae <> []
    && List.for_all (fun (_, mae) -> mae >= 0.0) pro.Report.forecast_mae)

let test_move_budget () =
  (* Under a budget every non-exempt reconfiguration re-homes at most
     that many chains. On a failure-burst trace (oracle on) the capped
     path fires under budget 0 (recoveries want to move chains back),
     and mandatory reconfigurations stay exempt. *)
  let trace = Trace.generate ~events:50 ~kind:Trace.Failure_burst ~seed:2 () in
  let drive move_budget =
    fst
      (run_ok ~seed:2 ~check:Lemur_check.Runtime_check.checker ?move_budget
         trace)
  in
  let within budget (r : Report.t) =
    List.iter
      (function
        | Report.Reconfigured { moves; exempt = false; _ } ->
            Alcotest.(check bool)
              (Printf.sprintf "journal entry moves %d <= budget %d" moves budget)
              true (moves <= budget)
        | _ -> ())
      r.Report.journal
  in
  let capped = drive (Some 0) in
  Alcotest.(check int) "capped reconfigurations under budget 0" 2
    capped.Report.moves_capped;
  Alcotest.(check int) "no non-exempt moves under budget 0" 0
    capped.Report.moves_total;
  within 0 capped;
  Alcotest.(check string) "budget-0 digest" "ace25f1d8af95ae7ade10e4322fefd20"
    (Report.digest capped);
  (* failures still re-home chains: the budget never blocks mandatory
     reconfigurations *)
  Alcotest.(check bool) "exempt reconfigurations still move chains" true
    (List.exists
       (function
         | Report.Reconfigured { moves; exempt = true; _ } -> moves > 0
         | _ -> false)
       capped.Report.journal);
  let one = drive (Some 1) in
  within 1 one;
  Alcotest.(check string) "budget-1 digest" "917798643ab2cbc11a97d689a3db2094"
    (Report.digest one);
  (* an unbudgeted run on the same trace does move chains *)
  let free = drive None in
  Alcotest.(check bool) "unbudgeted run re-homes chains" true
    (free.Report.moves_total > 0);
  Alcotest.(check int) "nothing capped without a budget" 0
    free.Report.moves_capped

let qcheck_cases =
  let open QCheck in
  let duration_gen =
    Gen.oneof
      [
        Gen.map (fun i -> float_of_int i /. 1000.0) (Gen.int_range 1 100_000);
        Gen.map (fun i -> float_of_int i /. 7000.0) (Gen.int_range 1 100_000);
        Gen.map (fun f -> Float.abs f +. 1e-6) Gen.pfloat;
      ]
  in
  let weight_gen =
    Gen.map (fun i -> float_of_int i /. 1_000_000.0) (Gen.int_range 1 1_000_000)
  in
  let headroom_gen =
    Gen.map (fun i -> float_of_int i /. 300.0) (Gen.int_range 0 900)
  in
  let model_gen =
    Gen.oneof
      [
        Gen.map (fun a -> Forecast.Ewma { alpha = a }) weight_gen;
        Gen.map2
          (fun a b -> Forecast.Holt_winters { alpha = a; beta = b })
          weight_gen weight_gen;
      ]
  in
  let policy_gen =
    Gen.oneof
      [
        Gen.return Policy.Immediate;
        Gen.return Policy.Scheduled;
        Gen.map2
          (fun b c -> Policy.Debounced { budget_s = b; cooldown_s = c })
          duration_gen duration_gen;
        Gen.map3
          (fun h m hd ->
            Policy.Proactive { horizon_s = h; model = m; headroom = hd })
          duration_gen model_gen headroom_gen;
      ]
  in
  let policy_arb = make ~print:Policy.to_string policy_gen in
  [
    Test.make ~name:"policy parse inverts to_string" ~count:500 policy_arb
      (fun p ->
        match Policy.parse (Policy.to_string p) with
        | Ok p' -> p = p'
        | Error _ -> false);
  ]

let test_trace_roundtrip () =
  let t = Trace.generate ~events:20 ~seed:5 () in
  let text = Trace.to_string t in
  match Trace.parse text with
  | Error e -> Alcotest.failf "re-parse failed: %s" (Trace.parse_error_to_string e)
  | Ok t' ->
      Alcotest.(check string) "print/parse/print fixpoint" text
        (Trace.to_string t');
      Alcotest.(check int) "same event count" (List.length t.Trace.events)
        (List.length t'.Trace.events)

let test_trace_parse_errors () =
  (* an empty file parses structurally but declares no chains, which
     initial_inputs rejects — the engine maps that to Trace_invalid *)
  (match Trace.parse "" with
  | Error e ->
      Alcotest.failf "empty trace should parse structurally: %s"
        (Trace.parse_error_to_string e)
  | Ok t -> (
      match Trace.initial_inputs t with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "chainless trace must have no inputs"));
  match Trace.parse "@0.5 frobnicate x\n" with
  | Error e ->
      let rendered = Trace.parse_error_to_string e in
      Alcotest.(check bool) "error names the verb" true
        (contains ~needle:"frobnicate" rendered)
  | Ok _ -> Alcotest.fail "unknown verb must not parse"

let test_trace_parse_positions () =
  (* Errors carry 1-based file/line/column; the CLI prints them
     compiler-style with no backtrace. *)
  (match Trace.parse ~file:"t.trace" "chain c0 = ACL\n@0.5 frobnicate x\n" with
  | Error e ->
      Alcotest.(check (option string)) "file" (Some "t.trace") e.Trace.pe_file;
      Alcotest.(check int) "line" 2 e.Trace.pe_line;
      Alcotest.(check bool) "rendered as file:line:col" true
        (contains ~needle:"t.trace:2:" (Trace.parse_error_to_string e))
  | Ok _ -> Alcotest.fail "unknown verb must not parse");
  (* a bad key=value points at the offending token's column *)
  (match Trace.parse "chain c0 slo(bogus='1') = ACL\n" with
  | Error e ->
      Alcotest.(check int) "line 1" 1 e.Trace.pe_line;
      Alcotest.(check bool) "column past start" true (e.Trace.pe_col >= 1)
  | Ok _ -> ());
  (* a rack option the no-PISA testbed would ignore points at that
     option; the testbed's own values (what [to_string] prints) parse *)
  (match Trace.parse "chain c0 = NAT\ntopology servers=3 cores=4 smartnic no-pisa\n" with
  | Error e ->
      Alcotest.(check int) "no-pisa conflict line" 2 e.Trace.pe_line;
      Alcotest.(check int) "column of servers=3" 10 e.Trace.pe_col;
      Alcotest.(check bool) "message names the option" true
        (contains ~needle:"\"servers=3\" does not apply with no-pisa"
           e.Trace.pe_message)
  | Ok _ -> Alcotest.fail "servers=3 with no-pisa must not parse");
  (match Trace.parse "chain c0 = NAT\ntopology no-pisa\ntopology smartnic\n" with
  | Error e ->
      Alcotest.(check (pair int int)) "smartnic after no-pisa" (3, 10)
        (e.Trace.pe_line, e.Trace.pe_col)
  | Ok _ -> Alcotest.fail "smartnic with no-pisa must not parse");
  (match Trace.parse "chain c0 = NAT\ntopology servers=1 cores=8 no-pisa\n" with
  | Ok t -> Alcotest.(check bool) "no-pisa defaults parse" true t.Trace.topo.no_pisa
  | Error e -> Alcotest.fail (Trace.parse_error_to_string e));
  (* default file placeholder when none was given *)
  match Trace.parse "@0.5 frobnicate x\n" with
  | Error e ->
      Alcotest.(check bool) "default file tag" true
        (contains ~needle:"<trace>" (Trace.parse_error_to_string e))
  | Ok _ -> Alcotest.fail "unknown verb must not parse"

let test_engine_survives_crashing_checker () =
  (* A check hook that raises mid-run must surface as a structured
     oracle rejection — the engine never lets the exception escape. *)
  let trace = Trace.generate ~events:12 ~seed:3 () in
  let calls = ref 0 in
  let check _ =
    incr calls;
    if !calls > 1 then failwith "checker bug" else Ok ()
  in
  let cfg =
    Engine.default_config ~policy:Policy.Immediate ~seed:3 ~check ()
  in
  match Engine.run cfg trace with
  | Error (Engine.Oracle_rejected { reason; _ }) ->
      Alcotest.(check bool) "reason names the hook crash" true
        (contains ~needle:"checker bug" reason)
  | Error e ->
      Alcotest.failf "wrong error class: %s" (Engine.error_to_string e)
  | Ok _ -> Alcotest.fail "second check call should have raised"
  | exception e ->
      Alcotest.failf "engine leaked the hook's exception: %s"
        (Printexc.to_string e)

let test_generator_deterministic () =
  let a = Trace.generate ~events:30 ~seed:7 () in
  let b = Trace.generate ~events:30 ~seed:7 () in
  Alcotest.(check string) "same seed, same trace" (Trace.to_string a)
    (Trace.to_string b);
  let c = Trace.generate ~events:30 ~seed:8 () in
  Alcotest.(check bool) "different seed, different trace" false
    (String.equal (Trace.to_string a) (Trace.to_string c))

let test_engine_deterministic () =
  let trace = Trace.generate ~events:12 ~seed:3 () in
  let r1, _ = run_ok trace in
  let r2, _ = run_ok trace in
  Alcotest.(check string) "equal report digests" (Report.digest r1)
    (Report.digest r2);
  Alcotest.(check int) "equal reconfig counts" r1.Report.reconfigs
    r2.Report.reconfigs

let test_policies_trade_reconfigs () =
  (* Debouncing pays for itself: on a 60-event churn trace (oracle on)
     it reconfigures at least 2x less often than immediate, for a
     violation-seconds premium within 0.10 + 1.5x immediate's. *)
  let trace = Trace.generate ~events:60 ~seed:11 () in
  let run policy =
    fst (run_ok ~policy ~check:Lemur_check.Runtime_check.checker trace)
  in
  let imm = run Policy.Immediate and deb = run Policy.default_debounced in
  Alcotest.(check int) "immediate reconfigs" 60 imm.Report.reconfigs;
  Alcotest.(check int) "debounced reconfigs" 7 deb.Report.reconfigs;
  Alcotest.(check (float 1e-9)) "immediate violation-seconds" 0.110
    imm.Report.total_violation_s;
  Alcotest.(check (float 1e-9)) "debounced violation-seconds" 0.138
    deb.Report.total_violation_s;
  Alcotest.(check bool) "violation premium bounded" true
    (deb.Report.total_violation_s
    <= 0.10 +. (1.5 *. imm.Report.total_violation_s));
  (* both saw the same stream *)
  Alcotest.(check int) "same events applied" imm.Report.events_applied
    deb.Report.events_applied

let test_engine_oracle_clean () =
  let trace = Trace.generate ~events:12 ~seed:3 () in
  let report, d = run_ok ~check:Lemur_check.Runtime_check.checker trace in
  Alcotest.(check bool) "at least one reconfig checked" true
    (report.Report.reconfigs > 0);
  match Lemur_check.Oracle.check_deployment d with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "final deployment must pass the oracle"

let test_fail_recover_and_rejects () =
  let report, d =
    run_ok ~check:Lemur_check.Runtime_check.checker (hand_trace ())
  in
  (match report.Report.stop with
  | Report.Completed -> ()
  | Report.Aborted { reason; _ } -> Alcotest.failf "aborted: %s" reason);
  Alcotest.(check int) "ghost removal rejected" 1 report.Report.events_rejected;
  Alcotest.(check int) "other three applied" 3 report.Report.events_applied;
  (* recovery restored the smartnic *)
  Alcotest.(check bool) "smartnic back in the rack" true
    (d.Lemur.Deployment.config.Lemur_placer.Plan.topology
       .Lemur_topology.Topology.smartnics
    <> [])

let test_scheduled_defers () =
  let trace = Trace.generate ~events:24 ~seed:3 () in
  let sch, _ = run_ok ~policy:Policy.Scheduled trace in
  let imm, _ = run_ok ~policy:Policy.Immediate trace in
  Alcotest.(check bool) "scheduled reconfigures less than immediate" true
    (sch.Report.reconfigs < imm.Report.reconfigs);
  Alcotest.(check bool) "deferred events journaled" true
    (List.exists
       (function Report.Deferred _ -> true | _ -> false)
       sch.Report.journal)

(* A demand-churn trace over longer chains than the generator's, so a
   re-solve has pattern search and coalescing to redo. *)
let resolve_trace () =
  let prng = Lemur_util.Prng.create ~seed:11 in
  let t = ref 0.0 in
  let events =
    List.init 40 (fun i ->
        t := !t +. 0.005;
        let rate = float_of_int (5 + Lemur_util.Prng.int prng 200) *. 1e8 in
        let chain_id = Printf.sprintf "r%d" (i mod 3) in
        { Trace.at = !t; action = Trace.Traffic { chain_id; rate } })
  in
  {
    Trace.seed = None;
    topo = { (hand_trace ()).Trace.topo with Trace.servers = 3 };
    chains =
      [
        "r0 slo(tmin='2.0Gbps', tmax='40Gbps') = ACL -> Monitor -> NAT -> \
         Encrypt -> Tunnel -> IPv4Fwd";
        "r1 slo(tmin='1.5Gbps', tmax='40Gbps') = BPF -> ACL -> Monitor -> NAT \
         -> Tunnel -> IPv4Fwd";
        "r2 slo(tmin='1.0Gbps', tmax='40Gbps') = Monitor -> ACL -> NAT -> \
         Encrypt -> IPv4Fwd";
      ];
    windows = [];
    events;
    horizon = !t +. 0.01;
  }

let test_incremental_digest_parity () =
  (* The incremental engine keeps the placer's variant cache warm
     across re-placements; from-scratch drops it inside every
     decision. Verdicts — and so report digests — must be
     byte-identical: the caches may only move decision latency. *)
  let drive ~seed trace incremental =
    Lemur_placer.Memo.clear ();
    Lemur_placer.Strategy.clear_variant_cache ();
    let cfg =
      Engine.default_config ~seed ~check:Lemur_check.Runtime_check.checker
        ~incremental ()
    in
    match Engine.run cfg trace with
    | Ok (report, _) -> Report.digest report
    | Error e -> Alcotest.failf "engine failed: %s" (Engine.error_to_string e)
  in
  let generated = Trace.generate ~events:24 ~seed:3 () in
  Alcotest.(check string) "incremental digest equals from-scratch"
    (drive ~seed:3 generated false) (drive ~seed:3 generated true);
  let long = resolve_trace () in
  Alcotest.(check string) "long chains: incremental digest"
    "3d99312fcba2b9d07f038751c7d7e36b" (drive ~seed:11 long true);
  Alcotest.(check string) "long chains: from-scratch digest"
    "3d99312fcba2b9d07f038751c7d7e36b" (drive ~seed:11 long false)

(* Report digests pinned byte-for-byte: one fixed seed per trace kind
   under every policy, plus a move-budgeted and a from-scratch run. Any
   change to the engine's event handling, journaling or accounting shows
   up here as a digest mismatch. *)
let golden_digests =
  [
    ("churn/immediate", "8cccf9ef0b1983aaa2e3be5640d725ed");
    ("churn/debounced", "8eaa2f15792e629e6e75db763e09f4c4");
    ("churn/scheduled", "019ac6bf0d9c58ac556c1b72336da202");
    ("churn/proactive", "e3fe35149394d4913f563c9b2aba7f47");
    ("diurnal/immediate", "92d79b872e2c8628a3d7fb93add89327");
    ("diurnal/debounced", "fdd5f21450b8563f40f803f8c306a49d");
    ("diurnal/scheduled", "802327f9b895f31c6d85cd5f338c95ea");
    ("diurnal/proactive", "57068c7de90881285ef69334b1c9a967");
    ("flash-crowd/immediate", "b9e1a763b7d54b81df7047c494a2645c");
    ("flash-crowd/debounced", "353ac2f9ade939255acab92e83738e8f");
    ("flash-crowd/scheduled", "a0c3663340b837b9040df43d111e17e0");
    ("flash-crowd/proactive", "e369e0d7888b6b7a3f7859e749e7694d");
    ("failure-burst/immediate", "ef2384669a71f4c679b3990bb2bc9765");
    ("failure-burst/debounced", "4175724cb589073b2f2917109598f119");
    ("failure-burst/scheduled", "9cc929150aa1cf60c8fb272d3fa9e370");
    ("failure-burst/proactive", "1c79e8ea63fd9d77db8050eee39a14d8");
    ("tenant-churn/immediate", "45a2d276fbc475be492a828fe143cc3d");
    ("tenant-churn/debounced", "75f103a16509124888fbc85072685da4");
    ("tenant-churn/scheduled", "732beb94b44e05bb224da4441ee7bf08");
    ("tenant-churn/proactive", "5a8890f2c9b1fdc676a9c4c47cb7e22f");
    ("failure-burst/immediate/budget-1", "38076a648d2d9798d8b99b2e35ff6d52");
    ("churn/immediate/from-scratch", "8cccf9ef0b1983aaa2e3be5640d725ed");
    ("churn/immediate/60-events/oracle", "f4776c23641827e050acd5f80bae0d4f");
  ]

let test_golden_digests () =
  let policies =
    [
      Policy.Immediate; Policy.default_debounced; Policy.Scheduled;
      Policy.default_proactive;
    ]
  in
  let digest ?(seed = 5) ?(events = 16) ?move_budget ?(incremental = true)
      ?check policy kind =
    let trace = Trace.generate ~events ~kind ~seed () in
    let cfg =
      Engine.default_config ~policy ~seed:11 ~incremental ?move_budget ?check
        ()
    in
    match Engine.run cfg trace with
    | Ok (report, _) -> Report.digest report
    | Error e -> Alcotest.failf "engine failed: %s" (Engine.error_to_string e)
  in
  let runs =
    List.concat_map
      (fun kind ->
        List.map
          (fun policy ->
            ( Trace.kind_to_string kind ^ "/" ^ Policy.name policy,
              fun () -> digest policy kind ))
          policies)
      Trace.all_kinds
    @ [
        (* the one seed here whose hybrid actually caps a move *)
        ( "failure-burst/immediate/budget-1",
          fun () ->
            digest ~seed:10 ~events:24 ~move_budget:1 Policy.Immediate
              Trace.Failure_burst );
        ( "churn/immediate/from-scratch",
          fun () -> digest ~incremental:false Policy.Immediate Trace.Churn );
        ( "churn/immediate/60-events/oracle",
          fun () ->
            digest ~seed:11 ~events:60 ~check:Lemur_check.Runtime_check.checker
              Policy.Immediate Trace.Churn );
      ]
  in
  List.iter
    (fun (label, run) ->
      Alcotest.(check string) label
        (Option.value ~default:"" (List.assoc_opt label golden_digests))
        (run ()))
    runs

let test_report_json_shape () =
  let trace = Trace.generate ~events:12 ~seed:3 () in
  let report, _ = run_ok trace in
  let json = Lemur_telemetry.Json.to_string (Report.to_json report) in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true
        (contains ~needle:("\"" ^ key ^ "\"") json))
    [
      "schema"; "policy"; "reconfigs"; "chains"; "total_violation_s";
      "journal"; "stop";
    ]

let suite =
  [
    Alcotest.test_case "policy parse" `Quick test_policy_parse;
    Alcotest.test_case "trace text round-trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace parse errors" `Quick test_trace_parse_errors;
    Alcotest.test_case "trace parse error positions" `Quick
      test_trace_parse_positions;
    Alcotest.test_case "crashing check hook is contained" `Quick
      test_engine_survives_crashing_checker;
    Alcotest.test_case "generator is deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "engine is deterministic" `Quick
      test_engine_deterministic;
    Alcotest.test_case "debounce trades reconfigs" `Quick
      test_policies_trade_reconfigs;
    Alcotest.test_case "engine passes the oracle" `Quick
      test_engine_oracle_clean;
    Alcotest.test_case "fail/recover and rejected events" `Quick
      test_fail_recover_and_rejects;
    Alcotest.test_case "scheduled policy defers" `Quick test_scheduled_defers;
    Alcotest.test_case "incremental matches from-scratch" `Quick
      test_incremental_digest_parity;
    Alcotest.test_case "report JSON shape" `Quick test_report_json_shape;
    Alcotest.test_case "policy parse rejects empty components" `Quick
      test_policy_parse_strict;
    Alcotest.test_case "debounce accumulator decays" `Quick
      test_debounce_decay;
    Alcotest.test_case "starved chain is latency-violated" `Quick
      test_monitor_starved_chain;
    Alcotest.test_case "marginal capped at offered" `Quick
      test_monitor_marginal_capped;
    Alcotest.test_case "SLO tallies match the journal" `Quick
      test_slo_tallies_match_journal;
    Alcotest.test_case "forecast models" `Quick test_forecast_models;
    Alcotest.test_case "generator kinds round-trip" `Quick
      test_generator_kinds;
    Alcotest.test_case "shrinking terminates on all kinds" `Quick
      test_shrink_terminates;
    Alcotest.test_case "proactive forecasting engine" `Quick
      test_proactive_engine;
    Alcotest.test_case "move budget caps re-homing" `Quick test_move_budget;
    Alcotest.test_case "golden report digests" `Quick test_golden_digests;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases
