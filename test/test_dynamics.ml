(* Tests for deployment dynamics and failure handling (§7). Chain edits,
   failures and recoveries are replayed through the runtime engine, the
   one control path that re-places; a config the trace format cannot
   express (e.g. the real capability matrix, or a generated scenario)
   goes through [Failover.degrade] + [Deployment.deploy], which is what
   [lemur failover] computes. *)
open Lemur_placer
module Trace = Lemur_runtime.Trace
module Policy = Lemur_runtime.Policy
module Engine = Lemur_runtime.Engine
module Report = Lemur_runtime.Report

let rack ?(servers = 1) ?(cores_per_socket = 8) ?(smartnic = false)
    ?(ofswitch = false) () =
  {
    Trace.servers;
    cores_per_socket;
    smartnic;
    ofswitch;
    no_pisa = false;
    metron = false;
  }

(* Table 2 chains [ns] as trace declarations, each with
   t_min = delta x base rate (§5.1). *)
let decls ~delta ns =
  let c = Plan.default_config (Lemur_topology.Topology.testbed ()) in
  List.map2
    (fun n (i : Plan.chain_input) ->
      Printf.sprintf "%s slo(tmin='%.4fGbps', tmax='100Gbps') = %s" i.Plan.id
        (i.Plan.slo.Lemur_slo.Slo.t_min /. 1e9)
        (Lemur.Chains.spec_text n))
    ns
    (Lemur.Chains.inputs_for_delta c ~delta ns)

(* The [k]th event (1-based) happens at [at k]. *)
let at k = 0.01 *. float_of_int k

let trace ?(topo = rack ()) chains actions =
  {
    Trace.seed = None;
    topo;
    chains;
    windows = [];
    events = List.mapi (fun k action -> { Trace.at = at (k + 1); action }) actions;
    horizon = at (List.length actions + 1);
  }

(* Replay with the oracle as the check hook: an oracle rejection fails
   the test, so every deployment the engine installs passes it. Also
   returns those deployments in install order, the initial one first. *)
let replay ?policy t =
  let installed = ref [] in
  let check d =
    installed := d :: !installed;
    Lemur_check.Runtime_check.checker d
  in
  let report, d = Test_runtime.run_ok ?policy ~check t in
  (report, d, List.rev !installed)

let reports d = d.Lemur.Deployment.placement.Strategy.chain_reports
let topology_of d = d.Lemur.Deployment.config.Plan.topology

let report_of d id =
  List.find (fun r -> r.Strategy.plan.Plan.input.Plan.id = id) (reports d)

let rate_of d id = (report_of d id).Strategy.rate
let input_of d id = (report_of d id).Strategy.plan.Plan.input

let rejected report =
  List.filter_map
    (function
      | Report.Rejected { at; reason; _ } -> Some (at, reason) | _ -> None)
    report.Report.journal

let reconfigured report =
  List.filter_map
    (function
      | Report.Reconfigured { reason; chains; _ } -> Some (reason, chains)
      | _ -> None)
    report.Report.journal

let completed report =
  match report.Report.stop with
  | Report.Completed -> ()
  | Report.Aborted { reason; _ } -> Alcotest.failf "aborted: %s" reason

let gbps = Lemur_util.Units.gbps
let extra_decl = "extra = Tunnel -> IPv4Fwd"
let add decl = Trace.Add_chain { decl }
let set_slo chain_id slo = Trace.Set_slo { chain_id; slo }
let uses_nic d =
  List.exists (fun r -> r.Strategy.plan.Plan.smartnic_nodes <> []) (reports d)

let test_slo_change_replaces () =
  let slo = Lemur_slo.Slo.make ~t_min:(gbps 1.2) ~t_max:(gbps 1.5) () in
  let report, d, _ =
    replay (trace (decls ~delta:0.5 [ 2; 3 ]) [ set_slo "chain3" slo ])
  in
  completed report;
  Alcotest.(check (list (pair string int))) "one slo-change re-placement"
    [ ("slo-change", 2) ] (reconfigured report);
  Alcotest.(check bool) "chain3 deployed under the new SLO" true
    ((input_of d "chain3").Plan.slo = slo);
  let r = rate_of d "chain3" in
  Alcotest.(check bool) "chain3 rate within [1.2G, 1.5G]" true
    (r >= 1.2e9 -. 1e3 && r <= 1.5e9 +. 1e3)

let test_chain_add_remove () =
  let report, d, _ =
    replay
      (trace (decls ~delta:0.5 [ 2; 3 ])
         [
           add extra_decl;
           Trace.Remove_chain "extra";
           add extra_decl;
           add extra_decl;
           Trace.Remove_chain "ghost";
         ])
  in
  completed report;
  Alcotest.(check (list (pair string int))) "add, remove, add re-place"
    [ ("chain-added", 3); ("chain-removed", 2); ("chain-added", 3) ]
    (reconfigured report);
  Alcotest.(check (list (pair (float 0.0) string)))
    "duplicate add and unknown removal rejected"
    [ (at 4, "chain \"extra\" already deployed"); (at 5, "unknown chain \"ghost\"") ]
    (rejected report);
  Alcotest.(check int) "3 chains at the end" 3 (List.length (reports d))

let test_infeasible_slo_change_reported () =
  let impossible = Lemur_slo.Slo.make ~t_min:(gbps 90.0) ~t_max:(gbps 100.0) () in
  let report, d, installed =
    replay (trace (decls ~delta:0.5 [ 2; 3 ]) [ set_slo "chain3" impossible ])
  in
  (* 90G of Dedup does not fit one server; an SLO change is deferrable,
     so the run keeps the old deployment *)
  completed report;
  Alcotest.(check int) "no re-placement" 0 report.Report.reconfigs;
  Alcotest.(check bool) "infeasible journaled at the event" true
    (List.exists
       (function
         | Report.Infeasible { at = t; reason } ->
             t = at 1 && String.starts_with ~prefix:"slo-change: " reason
         | _ -> false)
       report.Report.journal);
  Alcotest.(check bool) "initial deployment kept" true (d == List.hd installed)

(* Window switches over chains 2 and 3, whose peak and off-peak windows
   scale every chain's t_min; also returns the unscaled inputs. *)
let windowed labels =
  let t =
    trace (decls ~delta:0.5 [ 2; 3 ]) (List.map (fun l -> Trace.Window l) labels)
  in
  let inputs =
    match Trace.initial_inputs t with
    | Ok inputs -> inputs
    | Error e -> Alcotest.failf "bad chains: %s" e
  in
  let scaled factor =
    List.map
      (fun (i : Plan.chain_input) ->
        ( i.Plan.id,
          Lemur_slo.Slo.make
            ~t_min:(i.Plan.slo.Lemur_slo.Slo.t_min *. factor)
            ~t_max:i.Plan.slo.Lemur_slo.Slo.t_max () ))
      inputs
  in
  ( { t with Trace.windows = [ ("peak", scaled 2.0); ("off-peak", scaled 0.5) ] },
    inputs )

let test_schedule () =
  let t, inputs = windowed [ "peak"; "night"; "off-peak" ] in
  let report, _, installed = replay ~policy:Policy.Scheduled t in
  completed report;
  Alcotest.(check (list (pair (float 0.0) string))) "unknown label"
    [ (at 2, "unknown window \"night\"") ]
    (rejected report);
  match installed with
  | [ _; peak; off ] ->
      (* each window's placement is solved for, and honours, its own
         (scaled) guarantees *)
      let meets d factor =
        List.for_all
          (fun (i : Plan.chain_input) ->
            let t_min = factor *. i.Plan.slo.Lemur_slo.Slo.t_min in
            (input_of d i.Plan.id).Plan.slo.Lemur_slo.Slo.t_min = t_min
            && rate_of d i.Plan.id >= t_min -. 1e3)
          inputs
      in
      Alcotest.(check bool) "peak window meets 2x guarantees" true (meets peak 2.0);
      Alcotest.(check bool) "off-peak meets 0.5x guarantees" true (meets off 0.5)
  | l -> Alcotest.failf "expected 3 installed deployments, got %d" (List.length l)

let test_pisa_failure_no_fallback () =
  (* Under the evaluation capability matrix IPv4Fwd is P4-only, so chain
     3 has no software fallback when the PISA pipeline dies: the failure
     must be reported, not silently papered over. *)
  let report, _, _ =
    replay (trace (decls ~delta:0.25 [ 3 ]) [ Trace.Fail Lemur.Failover.Pisa_failed ])
  in
  match report.Report.stop with
  | Report.Aborted { at = t; reason } ->
      Alcotest.(check (float 0.0)) "aborted at the failure" (at 1) t;
      Alcotest.(check bool) ("reason: " ^ reason) true
        (String.starts_with ~prefix:"failure: " reason)
  | Report.Completed -> Alcotest.fail "P4-only IPv4Fwd cannot survive a PISA failure"

let test_pisa_failure_with_real_matrix () =
  (* The real capability matrix is not a trace option, so the fallback
     is the degraded rack's placement, as [lemur failover] computes it. *)
  let topo = Lemur_topology.Topology.testbed () in
  let c = { (Plan.default_config topo) with Plan.eval_capabilities = false } in
  let g = Lemur_spec.Loader.chain_of_string ~name:"c" "ACL -> NAT -> IPv4Fwd" in
  let inputs =
    [ { Plan.id = "c"; graph = g; slo = Lemur_slo.Slo.make ~t_min:1e9 ~t_max:100e9 () } ]
  in
  match Lemur.Deployment.deploy c inputs with
  | Error e -> Alcotest.failf "primary failed: %s" e
  | Ok d -> (
      let primary_on_switch =
        List.exists
          (fun r -> Array.exists (fun l -> l = Plan.Switch) r.Strategy.plan.Plan.locs)
          (reports d)
      in
      Alcotest.(check bool) "primary uses the switch" true primary_on_switch;
      match
        Result.bind (Lemur.Failover.degrade topo Lemur.Failover.Pisa_failed)
          (fun topology -> Lemur.Deployment.deploy { c with Plan.topology } inputs)
      with
      | Error e -> Alcotest.failf "failover failed: %s" e
      | Ok d' ->
          List.iter
            (fun r ->
              Alcotest.(check bool) "all NFs off the switch" true
                (Array.for_all (fun l -> l <> Plan.Switch) r.Strategy.plan.Plan.locs))
            (reports d'))

let test_server_failure () =
  let report, d, _ =
    replay
      (trace
         ~topo:(rack ~servers:2 ~cores_per_socket:4 ())
         (decls ~delta:0.5 [ 2; 3 ])
         [ Trace.Fail (Lemur.Failover.Server_failed "server1") ])
  in
  completed report;
  Alcotest.(check (list string)) "server1 gone" [ "server0" ]
    (Lemur_topology.Topology.server_names (topology_of d));
  List.iter
    (fun r ->
      List.iter
        (fun (_, server) ->
          Alcotest.(check string) "everything on server0" "server0" server)
        r.Strategy.seg_server)
    (reports d)

let test_degrade_errors () =
  let topo = Lemur_topology.Topology.testbed () in
  (match Lemur.Failover.degrade topo Lemur.Failover.Smartnic_failed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no smartnic to fail");
  (match Lemur.Failover.degrade topo (Lemur.Failover.Server_failed "server0") with
  | Error _ -> () (* last server *)
  | Ok _ -> Alcotest.fail "last server cannot fail");
  match Lemur.Failover.degrade topo (Lemur.Failover.Server_failed "ghost") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown server"

let test_proactive () =
  (* A fallback for an anticipated failure is the re-placement the
     engine's [Fail] step makes on the degraded rack. *)
  let report, d, installed =
    replay
      (trace ~topo:(rack ~smartnic:true ()) (decls ~delta:0.5 [ 5 ])
         [ Trace.Fail Lemur.Failover.Smartnic_failed ])
  in
  completed report;
  (* primary offloads ChaCha to the NIC; fallback keeps it on cores *)
  Alcotest.(check bool) "primary uses the NIC" true (uses_nic (List.hd installed));
  Alcotest.(check bool) "fallback avoids the NIC" false (uses_nic d);
  Alcotest.(check int) "fallback rack has no NIC" 0
    (List.length (topology_of d).Lemur_topology.Topology.smartnics)

let test_deferred_batch_matches_immediate () =
  (* Under [debounced] the SLO edits are deferred and the mandatory add
     re-places once for the whole batch; the final chain set is the
     one [immediate] reaches in three re-placements. *)
  let t =
    trace (decls ~delta:0.5 [ 2; 3 ])
      [
        set_slo "chain3" (Lemur_slo.Slo.make ~t_min:(gbps 1.2) ~t_max:(gbps 100.0) ());
        set_slo "chain2" (Lemur_slo.Slo.make ~t_min:(gbps 0.5) ~t_max:(gbps 50.0) ());
        add extra_decl;
      ]
  in
  let imm, di, _ = replay ~policy:Policy.Immediate t in
  let deb, dd, _ = replay ~policy:Policy.default_debounced t in
  completed imm;
  completed deb;
  Alcotest.(check int) "immediate re-places per event" 3 imm.Report.reconfigs;
  Alcotest.(check (list (pair string int))) "debounced re-places once"
    [ ("chain-added", 3) ] (reconfigured deb);
  Alcotest.(check int) "both SLO edits deferred" 2
    (List.length
       (List.filter (function Report.Deferred _ -> true | _ -> false) deb.Report.journal));
  let inputs d = List.map (fun r -> r.Strategy.plan.Plan.input) (reports d) in
  Alcotest.(check bool) "same final chain set" true
    (List.map (fun i -> (i.Plan.id, i.Plan.slo)) (inputs di)
    = List.map (fun i -> (i.Plan.id, i.Plan.slo)) (inputs dd));
  Alcotest.(check (float 0.0)) "same predicted rate"
    di.Lemur.Deployment.placement.Strategy.total_rate
    dd.Lemur.Deployment.placement.Strategy.total_rate;
  Alcotest.(check bool) "batch honours the new guarantee" true
    (rate_of dd "chain3" >= 1.2e9 -. 1e3)

let test_rejected_edits_journaled () =
  (* Every [Dynamics.update_inputs] error lands on the engine's
     [Rejected] entry for the event, stamped with its time. *)
  let report, d, _ =
    replay
      (trace (decls ~delta:0.5 [ 2; 3 ])
         [
           set_slo "ghost" Lemur_slo.Slo.best_effort;
           Trace.Remove_chain "ghost";
           add "chain2 = ACL";
           Trace.Remove_chain "chain3";
           Trace.Remove_chain "chain2";
         ])
  in
  completed report;
  Alcotest.(check (list (pair (float 0.0) string))) "errors and times"
    [
      (at 1, "unknown chain \"ghost\"");
      (at 2, "unknown chain \"ghost\"");
      (at 3, "chain \"chain2\" already deployed");
      (at 5, "cannot remove the last chain");
    ]
    (rejected report);
  Alcotest.(check (list string)) "only the valid removal applied" [ "chain2" ]
    (List.map (fun r -> r.Strategy.plan.Plan.input.Plan.id) (reports d))

(* A recovery rebuilds the pristine rack: the final deployment's rack
   equals the trace's own. *)
let check_pristine t d =
  Alcotest.(check bool) "pristine rack restored" true (topology_of d = Trace.topology t)

let test_recover_smartnic () =
  let t =
    trace ~topo:(rack ~smartnic:true ()) (decls ~delta:0.5 [ 5 ])
      [
        Trace.Recover Lemur.Failover.Smartnic_failed;
        Trace.Fail Lemur.Failover.Smartnic_failed;
        Trace.Recover Lemur.Failover.Smartnic_failed;
      ]
  in
  let report, d, installed = replay t in
  completed report;
  (* recovering a live element is rejected *)
  Alcotest.(check (list (pair (float 0.0) string))) "smartnic has not failed yet"
    [ (at 1, "element is not failed") ]
    (rejected report);
  match installed with
  | [ _; degraded; recovered ] ->
      Alcotest.(check int) "degraded rack has no nic" 0
        (List.length (topology_of degraded).Lemur_topology.Topology.smartnics);
      Alcotest.(check int) "nic restored" 1
        (List.length (topology_of recovered).Lemur_topology.Topology.smartnics);
      Alcotest.(check bool) "recovery is the final deployment" true (recovered == d);
      check_pristine t d
  | l -> Alcotest.failf "expected 3 installed deployments, got %d" (List.length l)

let test_recover_server_brings_its_nic () =
  let server n = Lemur.Failover.Server_failed n in
  let t =
    trace
      ~topo:(rack ~servers:2 ~smartnic:true ())
      (decls ~delta:0.5 [ 2; 3 ])
      [
        Trace.Fail (server "server0");
        Trace.Recover (server "server9");
        Trace.Recover (server "server0");
      ]
  in
  let report, d, installed = replay t in
  completed report;
  Alcotest.(check (list (pair (float 0.0) string))) "unknown server cannot recover"
    [ (at 2, "element is not failed") ]
    (rejected report);
  match installed with
  | [ _; degraded; _ ] ->
      let topo_deg = topology_of degraded in
      Alcotest.(check (list string)) "server0 gone" [ "server1" ]
        (Lemur_topology.Topology.server_names topo_deg);
      Alcotest.(check int) "its nic went with it" 0
        (List.length topo_deg.Lemur_topology.Topology.smartnics);
      let topo_rec = topology_of d in
      Alcotest.(check (list string)) "server order restored" [ "server0"; "server1" ]
        (Lemur_topology.Topology.server_names topo_rec);
      Alcotest.(check int) "server0's nic came back" 1
        (List.length topo_rec.Lemur_topology.Topology.smartnics);
      check_pristine t d
  | l -> Alcotest.failf "expected 3 installed deployments, got %d" (List.length l)

let test_schedule_switching () =
  let t, _ = windowed [ "peak"; "off-peak"; "peak"; "off-peak" ] in
  let report, _, installed = replay ~policy:Policy.Scheduled t in
  completed report;
  (* flip back and forth: every switch lands on a precomputed
     deployment (physically the same one each visit) and every one of
     them passed the oracle on install *)
  Alcotest.(check (list (pair string int))) "four window installs"
    [ ("window-install", 4) ] report.Report.reconfig_reasons;
  Alcotest.(check int) "solved once: initial placement + one precompute" 2
    (List.length report.Report.decision_latency_s);
  match installed with
  | [ _; p1; o1; p2; o2 ] ->
      Alcotest.(check bool) "peak lookups hit the same deployment" true (p1 == p2);
      Alcotest.(check bool) "off-peak lookups hit the same deployment" true (o1 == o2);
      Alcotest.(check bool) "windows differ" true (p1 != o1)
  | l -> Alcotest.failf "expected 5 installed deployments, got %d" (List.length l)

let test_proactive_multiple_failures () =
  let topo = rack ~servers:2 ~smartnic:true ~ofswitch:true () in
  List.iter
    (fun f ->
      let report, d, _ =
        replay (trace ~topo (decls ~delta:0.25 [ 2; 3 ]) [ Trace.Fail f ])
      in
      completed report;
      let t = topology_of d in
      match f with
      | Lemur.Failover.Smartnic_failed ->
          Alcotest.(check int) "nic absent in its fallback" 0
            (List.length t.Lemur_topology.Topology.smartnics)
      | Lemur.Failover.Ofswitch_failed ->
          Alcotest.(check bool) "ofswitch absent in its fallback" true
            (t.Lemur_topology.Topology.ofswitch = None)
      | Lemur.Failover.Server_failed name ->
          Alcotest.(check bool) "server absent in its fallback" false
            (List.mem name (Lemur_topology.Topology.server_names t))
      | Lemur.Failover.Pisa_failed -> ())
    [
      Lemur.Failover.Smartnic_failed;
      Lemur.Failover.Ofswitch_failed;
      Lemur.Failover.Server_failed "server1";
    ]

let test_failure_names () =
  List.iter
    (fun f ->
      let name = Lemur.Failover.to_string f in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Lemur.Failover.of_string name = Ok f))
    [
      Lemur.Failover.Pisa_failed;
      Lemur.Failover.Smartnic_failed;
      Lemur.Failover.Ofswitch_failed;
      Lemur.Failover.Server_failed "server3";
    ];
  Alcotest.(check bool) "case-insensitive" true
    (Lemur.Failover.of_string "SmartNIC" = Ok Lemur.Failover.Smartnic_failed);
  Alcotest.(check bool) "unknown element" true
    (Lemur.Failover.of_string "tor" = Error "unknown element \"tor\"")

(* Property tests: whatever re-placement the engine installs after an
   edit or failure, and every precomputed fallback, must itself satisfy
   the placement oracle — reconfiguration is not allowed to trade one
   SLO for another. Infeasibility is a legal answer, not a bug. *)

let oracle_ok d =
  match Lemur_check.Oracle.check_deployment d with
  | Ok () -> true
  | Error vs ->
      Fmt.epr "oracle rejected: %a@."
        (Fmt.list ~sep:Fmt.comma Lemur_check.Oracle.pp_violation)
        vs;
      false

(* [Engine.run] with the oracle hook: [Error] only on an oracle
   rejection (or a trace the engine cannot start). *)
let engine_oracle_clean t =
  let cfg = Engine.default_config ~check:Lemur_check.Runtime_check.checker () in
  match Engine.run cfg t with
  | Ok _ -> true
  | Error e ->
      Fmt.epr "%s@." (Engine.error_to_string e);
      false

let prop_dynamics_oracle =
  QCheck.Test.make ~name:"dynamics results pass the oracle" ~count:15
    QCheck.(make Gen.(int_range 1 10_000))
    (fun seed ->
      let prng = Lemur_util.Prng.create ~seed in
      let factor = 0.5 +. Lemur_util.Prng.float prng 1.0 in
      let slo =
        Lemur_slo.Slo.make ~t_min:(gbps (1.0 *. factor)) ~t_max:(gbps 100.0) ()
      in
      let extra_text =
        match Lemur_util.Prng.int prng 3 with
        | 0 -> "Tunnel -> IPv4Fwd"
        | 1 -> "ACL -> NAT"
        | _ -> "Encrypt"
      in
      let actions =
        [ set_slo "chain3" slo; add ("extra = " ^ extra_text) ]
        @ if Lemur_util.Prng.int prng 2 = 0 then [ Trace.Remove_chain "extra" ] else []
      in
      engine_oracle_clean (trace (decls ~delta:0.5 [ 2; 3 ]) actions))

let prop_failover_oracle =
  QCheck.Test.make ~name:"failover results pass the oracle" ~count:8
    QCheck.(make Gen.(int_range 1 10_000))
    (fun seed ->
      engine_oracle_clean
        (Trace.generate ~events:8 ~kind:Trace.Failure_burst ~seed ()))

let prop_proactive_oracle =
  QCheck.Test.make ~name:"proactive fallbacks pass the oracle" ~count:8
    QCheck.(make Gen.(int_range 1 10_000))
    (fun seed ->
      let sc = Lemur_check.Scenario.generate ~quick:true ~seed () in
      let c = Lemur_check.Scenario.config sc in
      let inputs = Lemur_check.Scenario.inputs sc in
      match Lemur.Deployment.deploy c inputs with
      | Error _ -> true
      | Ok primary ->
          oracle_ok primary
          && List.for_all
               (fun f ->
                 match
                   Result.bind (Lemur.Failover.degrade c.Plan.topology f)
                     (fun topology ->
                       Lemur.Deployment.deploy { c with Plan.topology } inputs)
                 with
                 | Error _ -> true
                 | Ok fb -> oracle_ok fb)
               [ Lemur.Failover.Pisa_failed; Lemur.Failover.Smartnic_failed ])

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [ prop_dynamics_oracle; prop_failover_oracle; prop_proactive_oracle ]

let suite =
  qcheck_cases
  @ [
    Alcotest.test_case "SLO change replaces" `Quick test_slo_change_replaces;
    Alcotest.test_case "chain add/remove" `Quick test_chain_add_remove;
    Alcotest.test_case "infeasible SLO change reported" `Quick
      test_infeasible_slo_change_reported;
    Alcotest.test_case "time-varying SLO schedule" `Quick test_schedule;
    Alcotest.test_case "pisa failure without fallback" `Quick
      test_pisa_failure_no_fallback;
    Alcotest.test_case "pisa failure falls back to servers" `Quick
      test_pisa_failure_with_real_matrix;
    Alcotest.test_case "server failure" `Quick test_server_failure;
    Alcotest.test_case "degrade error paths" `Quick test_degrade_errors;
    Alcotest.test_case "proactive fallbacks" `Quick test_proactive;
    Alcotest.test_case "batched apply matches sequential" `Quick
      test_deferred_batch_matches_immediate;
    Alcotest.test_case "rejected edits journal error and time" `Quick
      test_rejected_edits_journaled;
    Alcotest.test_case "smartnic recovery" `Quick test_recover_smartnic;
    Alcotest.test_case "server recovery restores its nic" `Quick
      test_recover_server_brings_its_nic;
    Alcotest.test_case "schedule window switching" `Quick
      test_schedule_switching;
    Alcotest.test_case "proactive with simultaneous anticipated failures"
      `Quick test_proactive_multiple_failures;
    Alcotest.test_case "failure names round-trip" `Quick test_failure_names;
  ]
