(* Tests for the Lemur facade: canonical chains and end-to-end
   deployments. *)
open Lemur_placer

let config () = Plan.default_config (Lemur_topology.Topology.testbed ())

let test_canonical_chain_sizes () =
  (* Table 2 structure: 8 + 6 + 5 + 15 = 34 NF instances (§5.1 reports
     34 for the 4-chain case), chain 5 has 4. *)
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "chain %d size" n)
        expected
        (Lemur_spec.Graph.size (Lemur.Chains.graph n)))
    [ (1, 8); (2, 6); (3, 5); (4, 15); (5, 4) ];
  Alcotest.(check int) "34 NFs in chains 1-4" 34
    (Lemur.Chains.nf_instance_count [ 1; 2; 3; 4 ])

let test_chain_contents () =
  let kinds n =
    List.map
      (fun node -> node.Lemur_spec.Graph.instance.Lemur_nf.Instance.kind)
      (Lemur_spec.Graph.nodes (Lemur.Chains.graph n))
  in
  let count k ks = List.length (List.filter (Lemur_nf.Kind.equal k) ks) in
  Alcotest.(check int) "chain2 has 3 NATs" 3 (count Lemur_nf.Kind.Nat (kinds 2));
  Alcotest.(check int) "chain4 has 3 LBs" 3 (count Lemur_nf.Kind.Lb (kinds 4));
  Alcotest.(check int) "chain4 has 3 Limiters" 3 (count Lemur_nf.Kind.Limiter (kinds 4));
  Alcotest.(check bool) "chain3 starts with Dedup" true
    (List.hd (kinds 3) = Lemur_nf.Kind.Dedup);
  Alcotest.(check bool) "chain5 has ChaCha" true
    (List.mem Lemur_nf.Kind.Fast_encrypt (kinds 5))

let test_base_rates () =
  let c = config () in
  (* Chain 3's base rate is set by Dedup (~33k worst-case cycles at
     1.7 GHz and 1500 B ~ 0.6 Gbps); chain 2's by Encrypt (~2.2 Gbps). *)
  let base n = Lemur.Chains.base_rate c (Lemur.Chains.graph n) in
  Alcotest.(check bool) "chain3 ~0.6G" true (base 3 > 0.5e9 && base 3 < 0.7e9);
  Alcotest.(check bool) "chain2 ~2.2G" true (base 2 > 2.0e9 && base 2 < 2.5e9);
  Alcotest.(check bool) "chain4 same bottleneck as chain3" true
    (Float.abs (base 4 -. base 3) < 1e6)

let test_inputs_for_delta () =
  let c = config () in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:2.0 [ 1; 3 ] in
  Alcotest.(check int) "two inputs" 2 (List.length inputs);
  List.iter
    (fun i ->
      let base = Lemur.Chains.base_rate c i.Plan.graph in
      Alcotest.(check (float 1.0)) "tmin = delta x base" (2.0 *. base)
        i.Plan.slo.Lemur_slo.Slo.t_min;
      Alcotest.(check (float 1.0)) "tmax default 100G" 100e9
        i.Plan.slo.Lemur_slo.Slo.t_max)
    inputs

let test_deploy_from_spec () =
  match
    Lemur.Deployment.of_spec
      "chain web slo(tmin='1Gbps', tmax='100Gbps') = ACL -> Encrypt -> IPv4Fwd"
  with
  | Error e -> Alcotest.failf "deploy failed: %s" e
  | Ok d ->
      Alcotest.(check int) "one chain" 1
        (List.length d.Lemur.Deployment.placement.Strategy.chain_reports);
      let r = Lemur.Deployment.measure d in
      let report = Lemur.Deployment.slo_report d r in
      List.iter
        (fun ((c : Lemur_dataplane.Sim.chain_result), (slo : Lemur_slo.Slo.t), v) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s meets SLO (%.2fG >= %.2fG)" c.chain_id
               (c.delivered /. 1e9) (slo.t_min /. 1e9))
            true (Lemur_slo.Slo.met v))
        report

let test_slo_report_latency () =
  (* The report judges d_max as well as t_min: a run whose p99 exceeds
     the chain's d_max is latency-violated, and [Slo.met] over the
     report — what `lemur run` exits on — is false. *)
  match
    Lemur.Deployment.of_spec
      "chain web slo(tmin='1Gbps', tmax='100Gbps', dmax='500us') = ACL -> Encrypt -> IPv4Fwd"
  with
  | Error e -> Alcotest.failf "deploy failed: %s" e
  | Ok d ->
      let r = Lemur.Deployment.measure d in
      let slow =
        {
          r with
          Lemur_dataplane.Sim.chains =
            List.map
              (fun (c : Lemur_dataplane.Sim.chain_result) ->
                { c with p99_latency = Lemur_util.Units.us 900.0 })
              r.Lemur_dataplane.Sim.chains;
        }
      in
      match Lemur.Deployment.slo_report d slow with
      | [ (c, slo, v) ] ->
          Alcotest.(check bool) "batches delivered" true (c.batches_delivered > 0);
          Alcotest.(check (float 1.0)) "d_max from the spec" 500e3 slo.Lemur_slo.Slo.d_max;
          Alcotest.(check bool) "throughput half met" true v.Lemur_slo.Slo.throughput_met;
          Alcotest.(check bool) "latency half violated" false v.Lemur_slo.Slo.latency_met;
          Alcotest.(check bool) "not met overall" false (Lemur_slo.Slo.met v)
      | l -> Alcotest.failf "expected one report line, got %d" (List.length l)

let test_deploy_errors () =
  (match Lemur.Deployment.of_spec "chain x = ACL ->" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  (match Lemur.Deployment.of_spec "chain x = Bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown NF");
  (match Lemur.Deployment.of_spec "acl0 = ACL(rules=[])" with
  | Error _ -> () (* no chains *)
  | Ok _ -> Alcotest.fail "expected no-chain error");
  match
    Lemur.Deployment.of_spec
      "chain x slo(tmin='99Gbps', tmax='100Gbps') = Dedup -> Dedup -> Dedup"
  with
  | Error _ -> () (* cannot satisfy 99G of Dedup on one server *)
  | Ok _ -> Alcotest.fail "expected infeasible"

let test_deploy_multi_chain_spec () =
  let spec =
    {|
acl_edge = ACL(rules=[{'dst_ip': '10.0.0.0/8', 'drop': False}])
chain secure slo(tmin='1Gbps') = acl_edge -> Encrypt -> IPv4Fwd
chain bulk = BPF -> Tunnel -> IPv4Fwd
|}
  in
  match Lemur.Deployment.of_spec spec with
  | Error e -> Alcotest.failf "deploy failed: %s" e
  | Ok d ->
      Alcotest.(check int) "two chains" 2
        (List.length d.Lemur.Deployment.placement.Strategy.chain_reports);
      (* the bulk chain is all-hardware: BPF/Tunnel/IPv4Fwd fit the ToR *)
      let bulk =
        List.find
          (fun r -> r.Strategy.plan.Plan.input.Plan.id = "bulk")
          d.Lemur.Deployment.placement.Strategy.chain_reports
      in
      Alcotest.(check bool) "bulk all on switch" true
        (Array.for_all (fun l -> l = Plan.Switch) bulk.Strategy.plan.Plan.locs)

let test_kitchen_sink_rack () =
  (* Everything at once: all five canonical chains on a rack with two
     servers, a SmartNIC, and an OpenFlow switch; deploy, validate the
     artifacts, simulate, and hold every SLO. *)
  let topo =
    Lemur_topology.Topology.testbed ~num_servers:2 ~smartnic:true ~ofswitch:true ()
  in
  let c = Plan.default_config topo in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 1; 2; 3; 4; 5 ] in
  match Lemur.Deployment.deploy c inputs with
  | Error e -> Alcotest.failf "deploy failed: %s" e
  | Ok d ->
      let p = d.Lemur.Deployment.placement in
      Alcotest.(check int) "five chains placed" 5
        (List.length p.Strategy.chain_reports);
      Alcotest.(check bool) "fits switch stages" true (p.Strategy.stages_used <= 12);
      (* artifacts exist for every platform in use *)
      let art = d.Lemur.Deployment.artifact in
      Alcotest.(check bool) "p4 emitted" true (art.Lemur_codegen.Codegen.p4 <> None);
      Alcotest.(check bool) "bess emitted" true (art.Lemur_codegen.Codegen.bess <> []);
      (* chain 5's ChaCha should land on the NIC in this rack *)
      Alcotest.(check bool) "chacha offloaded" true
        (List.exists
           (fun e -> e.Lemur_codegen.Ebpfgen.kind = Lemur_nf.Kind.Fast_encrypt)
           art.Lemur_codegen.Codegen.ebpf);
      let result = Lemur.Deployment.measure d in
      List.iter
        (fun ((c : Lemur_dataplane.Sim.chain_result), (slo : Lemur_slo.Slo.t), v) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s SLO (%.2fG >= %.2fG)" c.chain_id
               (c.delivered /. 1e9) (slo.t_min /. 1e9))
            true (Lemur_slo.Slo.met v))
        (Lemur.Deployment.slo_report d result)

let suite =
  [
    Alcotest.test_case "kitchen-sink rack" `Slow test_kitchen_sink_rack;
    Alcotest.test_case "canonical chain sizes (Table 2)" `Quick test_canonical_chain_sizes;
    Alcotest.test_case "canonical chain contents" `Quick test_chain_contents;
    Alcotest.test_case "base rates" `Quick test_base_rates;
    Alcotest.test_case "inputs for delta" `Quick test_inputs_for_delta;
    Alcotest.test_case "deploy from spec" `Quick test_deploy_from_spec;
    Alcotest.test_case "slo_report judges d_max" `Quick test_slo_report_latency;
    Alcotest.test_case "deploy error paths" `Quick test_deploy_errors;
    Alcotest.test_case "multi-chain spec" `Quick test_deploy_multi_chain_spec;
  ]
