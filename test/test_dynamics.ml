(* Tests for deployment dynamics and failure handling (§7). *)
open Lemur_placer

let config () = Plan.default_config (Lemur_topology.Topology.testbed ())

let base_deployment () =
  let c = config () in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 2; 3 ] in
  match Lemur.Deployment.deploy c inputs with
  | Ok d -> d
  | Error e -> Alcotest.failf "base deployment failed: %s" e

let rate_of d id =
  let r =
    List.find
      (fun r -> r.Strategy.plan.Plan.input.Plan.id = id)
      d.Lemur.Deployment.placement.Strategy.chain_reports
  in
  r.Strategy.rate

let test_slo_change_replaces () =
  let d = base_deployment () in
  let new_slo = Lemur_slo.Slo.make ~t_min:(Lemur_util.Units.gbps 1.2) ~t_max:(Lemur_util.Units.gbps 100.0) () in
  match
    Lemur.Dynamics.apply d
      (Lemur.Dynamics.Slo_changed { chain_id = "chain3"; slo = new_slo })
  with
  | Error e -> Alcotest.failf "apply failed: %s" e
  | Ok d' ->
      Alcotest.(check bool) "chain3 now gets at least 1.2G" true
        (rate_of d' "chain3" >= 1.2e9 -. 1e3)

let test_chain_add_remove () =
  let d = base_deployment () in
  let extra =
    {
      Plan.id = "extra";
      graph = Lemur_spec.Loader.chain_of_string ~name:"extra" "Tunnel -> IPv4Fwd";
      slo = Lemur_slo.Slo.best_effort;
    }
  in
  (match Lemur.Dynamics.apply d (Lemur.Dynamics.Chain_added extra) with
  | Error e -> Alcotest.failf "add failed: %s" e
  | Ok d' ->
      Alcotest.(check int) "3 chains" 3
        (List.length d'.Lemur.Deployment.placement.Strategy.chain_reports);
      (* removing it returns to 2 *)
      match Lemur.Dynamics.apply d' (Lemur.Dynamics.Chain_removed "extra") with
      | Error e -> Alcotest.failf "remove failed: %s" e
      | Ok d'' ->
          Alcotest.(check int) "back to 2 chains" 2
            (List.length d''.Lemur.Deployment.placement.Strategy.chain_reports));
  (* error paths *)
  (match Lemur.Dynamics.apply d (Lemur.Dynamics.Chain_added extra) with
  | Ok d' -> (
      match Lemur.Dynamics.apply d' (Lemur.Dynamics.Chain_added extra) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "duplicate add must fail")
  | Error e -> Alcotest.failf "add failed: %s" e);
  match Lemur.Dynamics.apply d (Lemur.Dynamics.Chain_removed "ghost") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "removing unknown chain must fail"

let test_infeasible_slo_change_reported () =
  let d = base_deployment () in
  let impossible =
    Lemur_slo.Slo.make ~t_min:(Lemur_util.Units.gbps 90.0) ~t_max:(Lemur_util.Units.gbps 100.0) ()
  in
  match
    Lemur.Dynamics.apply d
      (Lemur.Dynamics.Slo_changed { chain_id = "chain3"; slo = impossible })
  with
  | Error _ -> () (* 90G of Dedup does not fit one server *)
  | Ok _ -> Alcotest.fail "expected infeasible"

let test_schedule () =
  let c = config () in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 2; 3 ] in
  let window label factor =
    {
      Lemur.Dynamics.Schedule.label;
      slos =
        List.map
          (fun i ->
            ( i.Plan.id,
              Lemur_slo.Slo.make
                ~t_min:(i.Plan.slo.Lemur_slo.Slo.t_min *. factor)
                ~t_max:i.Plan.slo.Lemur_slo.Slo.t_max () ))
          inputs;
    }
  in
  match
    Lemur.Dynamics.Schedule.precompute c inputs [ window "peak" 2.0; window "off-peak" 0.5 ]
  with
  | Error e -> Alcotest.failf "precompute failed: %s" e
  | Ok schedule ->
      Alcotest.(check (list string)) "labels" [ "peak"; "off-peak" ]
        (Lemur.Dynamics.Schedule.labels schedule);
      let peak = Option.get (Lemur.Dynamics.Schedule.deployment schedule "peak") in
      let off = Option.get (Lemur.Dynamics.Schedule.deployment schedule "off-peak") in
      (* each window's placement honours its own (scaled) guarantees *)
      let meets d factor =
        List.for_all
          (fun i -> rate_of d i.Plan.id >= (factor *. i.Plan.slo.Lemur_slo.Slo.t_min) -. 1e3)
          inputs
      in
      Alcotest.(check bool) "peak window meets 2x guarantees" true (meets peak 2.0);
      Alcotest.(check bool) "off-peak meets 0.5x guarantees" true (meets off 0.5);
      Alcotest.(check bool) "unknown label" true
        (Lemur.Dynamics.Schedule.deployment schedule "night" = None)

let test_pisa_failure_no_fallback () =
  (* Under the evaluation capability matrix IPv4Fwd is P4-only, so chain
     3 has no software fallback when the PISA pipeline dies: the failure
     must be reported, not silently papered over. *)
  let c = config () in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.25 [ 3 ] in
  match Lemur.Deployment.deploy c inputs with
  | Error e -> Alcotest.failf "primary failed: %s" e
  | Ok d -> (
      match Lemur.Failover.react d Lemur.Failover.Pisa_failed with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "P4-only IPv4Fwd cannot survive a PISA failure")

let test_pisa_failure_with_real_matrix () =
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
          d.Lemur.Deployment.placement.Strategy.chain_reports
      in
      Alcotest.(check bool) "primary uses the switch" true primary_on_switch;
      match Lemur.Failover.react d Lemur.Failover.Pisa_failed with
      | Error e -> Alcotest.failf "failover failed: %s" e
      | Ok d' ->
          List.iter
            (fun r ->
              Alcotest.(check bool) "all NFs off the switch" true
                (Array.for_all (fun l -> l <> Plan.Switch) r.Strategy.plan.Plan.locs))
            d'.Lemur.Deployment.placement.Strategy.chain_reports)

let test_server_failure () =
  let topo = Lemur_topology.Topology.testbed ~num_servers:2 ~cores_per_socket:4 () in
  let c = Plan.default_config topo in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 2; 3 ] in
  match Lemur.Deployment.deploy c inputs with
  | Error e -> Alcotest.failf "primary failed: %s" e
  | Ok d -> (
      match Lemur.Failover.react d (Lemur.Failover.Server_failed "server1") with
      | Error e -> Alcotest.failf "failover failed: %s" e
      | Ok d' ->
          List.iter
            (fun r ->
              List.iter
                (fun (_, server) ->
                  Alcotest.(check string) "everything on server0" "server0" server)
                r.Strategy.seg_server)
            d'.Lemur.Deployment.placement.Strategy.chain_reports)

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
  let topo = Lemur_topology.Topology.testbed ~smartnic:true () in
  let c = Plan.default_config topo in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 5 ] in
  match Lemur.Failover.proactive c inputs [ Lemur.Failover.Smartnic_failed ] with
  | Error e -> Alcotest.failf "proactive failed: %s" e
  | Ok (primary, fallbacks) ->
      Alcotest.(check int) "one fallback" 1 (List.length fallbacks);
      let _, fb = List.hd fallbacks in
      (* primary offloads ChaCha to the NIC; fallback keeps it on cores *)
      let uses_nic d =
        List.exists
          (fun r -> r.Strategy.plan.Plan.smartnic_nodes <> [])
          d.Lemur.Deployment.placement.Strategy.chain_reports
      in
      Alcotest.(check bool) "primary uses the NIC" true (uses_nic primary);
      Alcotest.(check bool) "fallback avoids the NIC" false (uses_nic fb)

let oracle_ok d =
  match Lemur_check.Oracle.check_deployment d with
  | Ok () -> true
  | Error vs ->
      Fmt.epr "oracle rejected: %a@."
        (Fmt.list ~sep:Fmt.comma Lemur_check.Oracle.pp_violation)
        vs;
      false

let extra_input () =
  {
    Plan.id = "extra";
    graph = Lemur_spec.Loader.chain_of_string ~name:"extra" "Tunnel -> IPv4Fwd";
    slo = Lemur_slo.Slo.best_effort;
  }

let test_apply_batch_equivalent () =
  let d = base_deployment () in
  let slo =
    Lemur_slo.Slo.make ~t_min:(Lemur_util.Units.gbps 1.2)
      ~t_max:(Lemur_util.Units.gbps 100.0) ()
  in
  let events =
    [
      Lemur.Dynamics.Slo_changed { chain_id = "chain3"; slo };
      Lemur.Dynamics.Chain_added (extra_input ());
    ]
  in
  let sequential =
    List.fold_left
      (fun acc ev -> Result.bind acc (fun d -> Lemur.Dynamics.apply d ev))
      (Ok d) events
  in
  match (sequential, Lemur.Dynamics.apply_batch d events) with
  | Ok ds, Ok db ->
      Alcotest.(check int) "same chain count"
        (List.length ds.Lemur.Deployment.placement.Strategy.chain_reports)
        (List.length db.Lemur.Deployment.placement.Strategy.chain_reports);
      Alcotest.(check bool) "batch honours the new guarantee" true
        (rate_of db "chain3" >= 1.2e9 -. 1e3)
  | Error e, _ -> Alcotest.failf "sequential failed: %s" e
  | _, Error e -> Alcotest.failf "batch failed: %s" e

let test_apply_batch_skips_intermediates () =
  (* A batch only places the *final* chain set, so a sequence whose
     intermediate states are infeasible still succeeds. *)
  let d = base_deployment () in
  let huge =
    {
      Plan.id = "huge";
      graph = Lemur_spec.Loader.chain_of_string ~name:"huge" "Dedup";
      slo =
        Lemur_slo.Slo.make ~t_min:(Lemur_util.Units.gbps 90.0)
          ~t_max:(Lemur_util.Units.gbps 100.0) ();
    }
  in
  (match Lemur.Dynamics.apply d (Lemur.Dynamics.Chain_added huge) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "90G Dedup alone must be infeasible");
  match
    Lemur.Dynamics.apply_batch d
      [ Lemur.Dynamics.Chain_added huge; Lemur.Dynamics.Chain_removed "huge" ]
  with
  | Error e -> Alcotest.failf "add-then-remove batch failed: %s" e
  | Ok d' ->
      Alcotest.(check int) "net chain set unchanged" 2
        (List.length d'.Lemur.Deployment.placement.Strategy.chain_reports)

let test_apply_batch_names_offender () =
  let d = base_deployment () in
  match
    Lemur.Dynamics.apply_batch d
      [
        Lemur.Dynamics.Chain_added (extra_input ());
        Lemur.Dynamics.Chain_removed "ghost";
      ]
  with
  | Ok _ -> Alcotest.fail "removal of unknown chain must fail"
  | Error e ->
      let has_prefix =
        String.length e >= 7 && String.equal (String.sub e 0 7) "event 2"
      in
      Alcotest.(check bool) ("offender named in: " ^ e) true has_prefix

let test_recover_smartnic () =
  let topo = Lemur_topology.Topology.testbed ~smartnic:true () in
  let c = Plan.default_config topo in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 5 ] in
  match Lemur.Deployment.deploy c inputs with
  | Error e -> Alcotest.failf "primary failed: %s" e
  | Ok d -> (
      (* recovering a live element is an error *)
      (match Lemur.Failover.recover ~reference:topo d Lemur.Failover.Smartnic_failed with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "smartnic has not failed yet");
      match Lemur.Failover.react d Lemur.Failover.Smartnic_failed with
      | Error e -> Alcotest.failf "failover failed: %s" e
      | Ok d_deg -> (
          Alcotest.(check int) "degraded rack has no nic" 0
            (List.length
               d_deg.Lemur.Deployment.config.Plan.topology
                 .Lemur_topology.Topology.smartnics);
          match
            Lemur.Failover.recover ~reference:topo d_deg
              Lemur.Failover.Smartnic_failed
          with
          | Error e -> Alcotest.failf "recover failed: %s" e
          | Ok d_rec ->
              Alcotest.(check int) "nic restored" 1
                (List.length
                   d_rec.Lemur.Deployment.config.Plan.topology
                     .Lemur_topology.Topology.smartnics);
              Alcotest.(check bool) "recovered placement passes the oracle" true
                (oracle_ok d_rec)))

let test_recover_server_brings_its_nic () =
  let topo = Lemur_topology.Topology.testbed ~num_servers:2 ~smartnic:true () in
  let c = Plan.default_config topo in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 2; 3 ] in
  match Lemur.Deployment.deploy c inputs with
  | Error e -> Alcotest.failf "primary failed: %s" e
  | Ok d -> (
      match Lemur.Failover.react d (Lemur.Failover.Server_failed "server0") with
      | Error e -> Alcotest.failf "failover failed: %s" e
      | Ok d_deg -> (
          let topo_deg =
            d_deg.Lemur.Deployment.config.Plan.topology
          in
          Alcotest.(check (list string)) "server0 gone" [ "server1" ]
            (Lemur_topology.Topology.server_names topo_deg);
          Alcotest.(check int) "its nic went with it" 0
            (List.length topo_deg.Lemur_topology.Topology.smartnics);
          (match
             Lemur.Failover.recover ~reference:topo d_deg
               (Lemur.Failover.Server_failed "server9")
           with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "unknown server cannot recover");
          match
            Lemur.Failover.recover ~reference:topo d_deg
              (Lemur.Failover.Server_failed "server0")
          with
          | Error e -> Alcotest.failf "recover failed: %s" e
          | Ok d_rec ->
              let topo_rec =
                d_rec.Lemur.Deployment.config.Plan.topology
              in
              Alcotest.(check (list string)) "reference order restored"
                [ "server0"; "server1" ]
                (Lemur_topology.Topology.server_names topo_rec);
              Alcotest.(check int) "server0's nic came back" 1
                (List.length topo_rec.Lemur_topology.Topology.smartnics);
              Alcotest.(check bool) "recovered placement passes the oracle" true
                (oracle_ok d_rec)))

let test_schedule_switching () =
  let c = config () in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 2; 3 ] in
  let window label factor =
    {
      Lemur.Dynamics.Schedule.label;
      slos =
        List.map
          (fun i ->
            ( i.Plan.id,
              Lemur_slo.Slo.make
                ~t_min:(i.Plan.slo.Lemur_slo.Slo.t_min *. factor)
                ~t_max:i.Plan.slo.Lemur_slo.Slo.t_max () ))
          inputs;
    }
  in
  match
    Lemur.Dynamics.Schedule.precompute c inputs
      [ window "peak" 2.0; window "off-peak" 0.5 ]
  with
  | Error e -> Alcotest.failf "precompute failed: %s" e
  | Ok schedule ->
      (* flip back and forth: every switch lands on a precomputed
         deployment (physically the same one each visit — no re-solve)
         and every one of them passes the oracle *)
      let visit label =
        match Lemur.Dynamics.Schedule.deployment schedule label with
        | None -> Alcotest.failf "window %s missing" label
        | Some d ->
            Alcotest.(check bool)
              (label ^ " window passes the oracle")
              true (oracle_ok d);
            d
      in
      let p1 = visit "peak" in
      let o1 = visit "off-peak" in
      let p2 = visit "peak" in
      let o2 = visit "off-peak" in
      Alcotest.(check bool) "peak lookups hit the same deployment" true
        (p1 == p2);
      Alcotest.(check bool) "off-peak lookups hit the same deployment" true
        (o1 == o2);
      Alcotest.(check bool) "windows differ" true (p1 != o1)

let test_proactive_multiple_failures () =
  let topo =
    Lemur_topology.Topology.testbed ~num_servers:2 ~smartnic:true
      ~ofswitch:true ()
  in
  let c = Plan.default_config topo in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.25 [ 2; 3 ] in
  let anticipated =
    [
      Lemur.Failover.Smartnic_failed;
      Lemur.Failover.Ofswitch_failed;
      Lemur.Failover.Server_failed "server1";
    ]
  in
  match Lemur.Failover.proactive c inputs anticipated with
  | Error e -> Alcotest.failf "proactive failed: %s" e
  | Ok (primary, fallbacks) ->
      Alcotest.(check bool) "primary passes the oracle" true (oracle_ok primary);
      Alcotest.(check int) "one fallback per anticipated failure"
        (List.length anticipated) (List.length fallbacks);
      List.iter
        (fun (f, fb) ->
          let t = fb.Lemur.Deployment.config.Plan.topology in
          Alcotest.(check bool) "fallback passes the oracle" true (oracle_ok fb);
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
        fallbacks

(* Property tests: whatever dynamics and failover hand back as a
   *successful* redeployment must itself satisfy the placement oracle —
   reconfiguration is not allowed to trade one SLO for another. *)

let prop_dynamics_oracle =
  QCheck.Test.make ~name:"dynamics results pass the oracle" ~count:15
    QCheck.(make Gen.(int_range 1 10_000))
    (fun seed ->
      let d = base_deployment () in
      let prng = Lemur_util.Prng.create ~seed in
      let factor = 0.5 +. Lemur_util.Prng.float prng 1.0 in
      let slo =
        Lemur_slo.Slo.make
          ~t_min:(Lemur_util.Units.gbps (1.0 *. factor))
          ~t_max:(Lemur_util.Units.gbps 100.0) ()
      in
      let extra_text =
        match Lemur_util.Prng.int prng 3 with
        | 0 -> "Tunnel -> IPv4Fwd"
        | 1 -> "ACL -> NAT"
        | _ -> "Encrypt"
      in
      let extra =
        {
          Plan.id = "extra";
          graph = Lemur_spec.Loader.chain_of_string ~name:"extra" extra_text;
          slo = Lemur_slo.Slo.best_effort;
        }
      in
      let events =
        [
          Lemur.Dynamics.Slo_changed { chain_id = "chain3"; slo };
          Lemur.Dynamics.Chain_added extra;
        ]
        @ (if Lemur_util.Prng.int prng 2 = 0 then
             [ Lemur.Dynamics.Chain_removed "extra" ]
           else [])
      in
      match Lemur.Dynamics.apply_batch d events with
      | Error _ -> true (* infeasibility is a legal answer, not a bug *)
      | Ok d' -> oracle_ok d')

let prop_failover_oracle =
  QCheck.Test.make ~name:"failover results pass the oracle" ~count:8
    QCheck.(make Gen.(int_range 1 10_000))
    (fun seed ->
      let sc = Lemur_check.Scenario.generate ~quick:true ~seed () in
      let c = Lemur_check.Scenario.config sc in
      let inputs = Lemur_check.Scenario.inputs sc in
      match Lemur.Deployment.deploy c inputs with
      | Error _ -> true
      | Ok d ->
          List.for_all
            (fun f ->
              match Lemur.Failover.react d f with
              | Error _ -> true (* no viable degraded placement *)
              | Ok d' -> oracle_ok d')
            [
              Lemur.Failover.Pisa_failed;
              Lemur.Failover.Smartnic_failed;
              Lemur.Failover.Ofswitch_failed;
            ])

let prop_proactive_oracle =
  QCheck.Test.make ~name:"proactive fallbacks pass the oracle" ~count:8
    QCheck.(make Gen.(int_range 1 10_000))
    (fun seed ->
      let sc = Lemur_check.Scenario.generate ~quick:true ~seed () in
      let c = Lemur_check.Scenario.config sc in
      let inputs = Lemur_check.Scenario.inputs sc in
      match
        Lemur.Failover.proactive c inputs
          [ Lemur.Failover.Pisa_failed; Lemur.Failover.Smartnic_failed ]
      with
      | Error _ -> true
      | Ok (primary, fallbacks) ->
          oracle_ok primary
          && List.for_all (fun (_, fb) -> oracle_ok fb) fallbacks)

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
      test_apply_batch_equivalent;
    Alcotest.test_case "batched apply skips intermediates" `Quick
      test_apply_batch_skips_intermediates;
    Alcotest.test_case "batched apply names the offender" `Quick
      test_apply_batch_names_offender;
    Alcotest.test_case "smartnic recovery" `Quick test_recover_smartnic;
    Alcotest.test_case "server recovery restores its nic" `Quick
      test_recover_server_brings_its_nic;
    Alcotest.test_case "schedule window switching" `Quick
      test_schedule_switching;
    Alcotest.test_case "proactive with simultaneous anticipated failures"
      `Quick test_proactive_multiple_failures;
  ]
