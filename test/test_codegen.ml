open Lemur_placer
open Lemur_codegen

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* replace the first occurrence of [needle] in [hay] with [by] *)
let replace_first hay needle by =
  let nl = String.length needle and hl = String.length hay in
  let rec find i = if i + nl > hl then None else if String.sub hay i nl = needle then Some i else find (i + 1) in
  match find 0 with
  | None -> hay
  | Some i -> String.sub hay 0 i ^ by ^ String.sub hay (i + nl) (hl - i - nl)

let config () = Plan.default_config (Lemur_topology.Topology.testbed ())

let place_chains ?(delta = 0.5) ?(set = [ 1; 2; 3; 4 ]) c =
  let inputs = Lemur.Chains.inputs_for_delta c ~delta set in
  match Strategy.place Strategy.Lemur c inputs with
  | Strategy.Placed p -> p
  | Strategy.Infeasible { reason } -> Alcotest.failf "placement failed: %s" reason

let test_spi_assignment () =
  let c = config () in
  let p = place_chains c in
  let plans = List.map (fun r -> r.Strategy.plan) p.Strategy.chain_reports in
  let spi = Spi.assign plans in
  (* chain1 has 3 service paths, chains 2 and 4 have 3 each, chain3 one *)
  Alcotest.(check int) "10 service paths" 10 (Spi.spi_count spi);
  let all = Spi.paths spi in
  let spis = List.map (fun pth -> pth.Spi.spi) all in
  Alcotest.(check int) "spis unique" (List.length spis)
    (List.length (Lemur_util.Listx.uniq ( = ) spis));
  (* SI counts down along the path *)
  List.iter
    (fun pth ->
      let len = List.length pth.Spi.nodes in
      List.iteri
        (fun i node ->
          Alcotest.(check (option int)) "si position" (Some (len - i))
            (Spi.si_of spi ~spi:pth.Spi.spi node))
        pth.Spi.nodes)
    all

let test_p4_program_structure () =
  let c = config () in
  let p = place_chains c in
  let art = Codegen.compile c p in
  match art.Codegen.p4 with
  | None -> Alcotest.fail "expected a P4 program"
  | Some prog ->
      let src = prog.P4gen.source in
      let has s =
        Alcotest.(check bool) (Printf.sprintf "contains %S" s) true
          (contains src s)
      in
      has "parser start";
      has "ingress_steering";
      has "nsh_decap";
      has "nsh_encap";
      has "control ingress";
      has "header nsh_t nsh";
      (* stats add up *)
      Alcotest.(check int) "stats total" prog.P4gen.stats.P4gen.total_lines
        (prog.P4gen.stats.P4gen.library_lines + prog.P4gen.stats.P4gen.generated_lines);
      Alcotest.(check bool) "steering subset of generated" true
        (prog.P4gen.stats.P4gen.steering_lines <= prog.P4gen.stats.P4gen.generated_lines)

let test_p4_loc_fraction () =
  (* §5.3: a substantial fraction of the P4 program is auto-generated
     ("more than a third of the total code"). *)
  let c = config () in
  let p = place_chains c in
  let art = Codegen.compile c p in
  let loc = Codegen.loc art in
  Alcotest.(check bool) "more than a third generated" true
    (loc.Codegen.generated_fraction > 0.34);
  Alcotest.(check bool) "library code present too" true (loc.Codegen.library_loc > 50);
  Alcotest.(check bool) "steering entries dominate nothing pathological" true
    (loc.Codegen.steering_loc > 0)

let test_p4_none_when_no_switch () =
  (* Without a PISA ToR nothing is generated for P4. *)
  let topo = Lemur_topology.Topology.no_pisa_testbed ~ofswitch:true () in
  let c = Plan.default_config topo in
  let i =
    {
      Plan.id = "c";
      graph = Lemur_spec.Loader.chain_of_string ~name:"c" "Dedup -> ACL -> Monitor";
      slo = Lemur_slo.Slo.best_effort;
    }
  in
  match Strategy.place Strategy.Lemur c [ i ] with
  | Strategy.Infeasible { reason } -> Alcotest.failf "infeasible: %s" reason
  | Strategy.Placed p ->
      let art = Codegen.compile c p in
      Alcotest.(check bool) "no P4 program" true (art.Codegen.p4 = None)

let test_bess_artifacts () =
  let c = config () in
  let p = place_chains c in
  let art = Codegen.compile c p in
  Alcotest.(check int) "one server" 1 (List.length art.Codegen.bess);
  let b = List.hd art.Codegen.bess in
  (match Lemur_bess.Module_graph.validate b.Bessgen.graph with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid module graph: %s" e);
  Alcotest.(check int) "cores match placement" p.Strategy.cores_used
    (Lemur_bess.Scheduler.cores_used b.Bessgen.scheduler);
  let has s = contains b.Bessgen.script s in
  Alcotest.(check bool) "script has PortInc" true (has "PortInc");
  Alcotest.(check bool) "script has NSHdecap" true (has "NSHdecap");
  Alcotest.(check bool) "script attaches tasks" true (has "attach_task")

let test_bess_multicore_lb () =
  (* A subgroup with more than one core gets a HashLB module. *)
  let c = config () in
  let g = Lemur_spec.Loader.chain_of_string ~name:"c" "Encrypt -> IPv4Fwd" in
  let slo = Lemur_slo.Slo.make ~t_min:4e9 ~t_max:100e9 () in
  match Strategy.place Strategy.Lemur c [ { Plan.id = "c"; graph = g; slo } ] with
  | Strategy.Infeasible { reason } -> Alcotest.failf "infeasible: %s" reason
  | Strategy.Placed p ->
      let art = Codegen.compile c p in
      let b = List.hd art.Codegen.bess in
      let lbs =
        List.filter
          (fun m ->
            match m.Lemur_bess.Module_graph.kind with
            | Lemur_bess.Module_graph.Core_lb _ -> true
            | _ -> false)
          (Lemur_bess.Module_graph.modules b.Bessgen.graph)
      in
      Alcotest.(check int) "one LB for the replicated subgroup" 1 (List.length lbs)

let test_ebpf_artifacts () =
  let topo = Lemur_topology.Topology.testbed ~smartnic:true () in
  let c = Plan.default_config topo in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 5 ] in
  match Strategy.place Strategy.Lemur c inputs with
  | Strategy.Infeasible { reason } -> Alcotest.failf "infeasible: %s" reason
  | Strategy.Placed p ->
      let art = Codegen.compile c p in
      (* chain 5's ChaCha should be offloaded to the SmartNIC *)
      Alcotest.(check bool) "chacha on the NIC" true
        (List.exists
           (fun e -> e.Ebpfgen.kind = Lemur_nf.Kind.Fast_encrypt)
           art.Codegen.ebpf);
      List.iter
        (fun e ->
          Alcotest.(check bool) "within insn budget" true
            (e.Ebpfgen.instruction_count <= 4096);
          Alcotest.(check bool) "has XDP section" true
            (contains e.Ebpfgen.c_source "SEC(\"xdp\")"))
        art.Codegen.ebpf

let test_routing_check () =
  let c = config () in
  let p = place_chains c in
  let art = Codegen.compile c p in
  (match Routing_check.verify p art with
  | Ok () -> ()
  | Error e -> Alcotest.failf "routing check failed: %s" e);
  (* corrupt a steering entry: the checker must catch it *)
  match art.Codegen.p4 with
  | None -> Alcotest.fail "expected p4"
  | Some prog ->
      let corrupt line =
        if
          contains line "/* entry */ set (spi=1, si="
          && contains line "server_port"
        then
          (* misdirect one hop *)
          replace_first line "server_port" "nic_port"
        else line
      in
      let lines = String.split_on_char '\n' prog.P4gen.source in
      let source' = String.concat "\n" (List.map corrupt lines) in
      let art' =
        { art with Codegen.p4 = Some { prog with P4gen.source = source' } }
      in
      if source' <> prog.P4gen.source then
        match Routing_check.verify p art' with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "corrupted steering must fail the check"

(* Execute the semantic pipeline model: one Mae.run per switch
   traversal; port 0 recirculates, 1 = server bounce, 9 = egress. *)
let traverse semantic env =
  let rec go env bounces visits steps =
    if steps > 64 then `Stuck
    else
      let env = Lemur_p4.Mae.run env semantic in
      if Lemur_p4.Mae.dropped env then `Dropped
      else
        match Lemur_p4.Mae.get env "meta.egress" with
        | 9 -> `Egress (bounces, List.rev visits)
        | 0 -> go env bounces (`Sw :: visits) (steps + 1)
        | p ->
            go
              (Lemur_p4.Mae.set env "meta.from_server" 1)
              (bounces + 1)
              (`Bounce p :: visits) (steps + 1)
  in
  go env 0 [] 0

let test_semantic_pipeline_execution () =
  let c = config () in
  let spec_text =
    "chain web slo(tmin='1Gbps') = ACL(rules=[{'dst_ip': '10.0.0.0/8', \
     'drop': False}, {'dst_ip': '0.0.0.0/0', 'drop': True}]) -> Encrypt -> IPv4Fwd"
  in
  ignore c;
  match Lemur.Deployment.of_spec spec_text with
  | Error e -> Alcotest.failf "deploy failed: %s" e
  | Ok d -> (
      match d.Lemur.Deployment.artifact.Codegen.p4 with
      | None -> Alcotest.fail "expected p4"
      | Some prog -> (
          let semantic = prog.P4gen.semantic in
          (* a packet to 10.x survives the ACL and bounces once (Encrypt
             on the server) before egress *)
          let fresh dst =
            [
              ("pkt.aggregate", 0); ("pkt.path_choice", 0);
              ("ipv4.dst_addr", dst);
            ]
          in
          (match traverse semantic (fresh 0x0A000001) with
          | `Egress (bounces, _) ->
              Alcotest.(check int) "one server bounce" 1 bounces
          | `Dropped -> Alcotest.fail "permitted packet dropped"
          | `Stuck -> Alcotest.fail "routing loop");
          (* any other destination hits the drop rule *)
          match traverse semantic (fresh 0xC0A80001) with
          | `Dropped -> ()
          | `Egress _ -> Alcotest.fail "packet to non-10.x must be dropped"
          | `Stuck -> Alcotest.fail "routing loop"))

let test_semantic_pipeline_canonical_chains () =
  (* every service path of chains {1,2,3} executes to egress with the
     expected number of server bounces *)
  let c = config () in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 1; 2; 3 ] in
  match Lemur.Deployment.deploy c inputs with
  | Error e -> Alcotest.failf "deploy failed: %s" e
  | Ok d -> (
      match d.Lemur.Deployment.artifact.Codegen.p4 with
      | None -> Alcotest.fail "expected p4"
      | Some prog ->
          let semantic = prog.P4gen.semantic in
          List.iteri
            (fun chain_index report ->
              let chain_id = report.Strategy.plan.Plan.input.Plan.id in
              let paths =
                Spi.paths_of_chain d.Lemur.Deployment.artifact.Codegen.spi chain_id
              in
              List.iteri
                (fun path_index path ->
                  let env =
                    [
                      ("pkt.aggregate", chain_index);
                      ("pkt.path_choice", path_index);
                      ("ipv4.dst_addr", 0x0A000001);
                    ]
                  in
                  match traverse semantic env with
                  | `Egress (_, visits) ->
                      (* one classification pass + one steering pass per NF *)
                      Alcotest.(check int)
                        (Printf.sprintf "%s path %d visits every hop" chain_id
                           path_index)
                        (List.length path.Spi.nodes + 1)
                        (List.length visits)
                  | `Dropped ->
                      Alcotest.failf "%s path %d dropped" chain_id path_index
                  | `Stuck -> Alcotest.failf "%s path %d loops" chain_id path_index)
                paths)
            d.Lemur.Deployment.placement.Strategy.chain_reports)

let test_metron_codegen () =
  (* With core tagging the steering action gains a core parameter and
     replicated subgroups get no HashLB module. *)
  let c = { (config ()) with Plan.metron_steering = true } in
  let g = Lemur_spec.Loader.chain_of_string ~name:"c" "Encrypt -> IPv4Fwd" in
  let slo = Lemur_slo.Slo.make ~t_min:4e9 ~t_max:100e9 () in
  match Strategy.place Strategy.Lemur c [ { Plan.id = "c"; graph = g; slo } ] with
  | Strategy.Infeasible { reason } -> Alcotest.failf "infeasible: %s" reason
  | Strategy.Placed p ->
      let art = Codegen.compile c p in
      (match art.Codegen.p4 with
      | None -> Alcotest.fail "expected p4"
      | Some prog ->
          Alcotest.(check bool) "steer action takes a core" true
            (contains prog.P4gen.source "action steer(spi, si, port, core)"));
      let b = List.hd art.Codegen.bess in
      Alcotest.(check bool) "no HashLB generated" false
        (contains b.Bessgen.script "HashLB")

let test_openflow_artifacts () =
  let topo = Lemur_topology.Topology.no_pisa_testbed ~ofswitch:true () in
  let c = Plan.default_config topo in
  let i =
    {
      Plan.id = "c3of";
      graph = Lemur_spec.Loader.chain_of_string ~name:"c3of" "Dedup -> ACL -> Limiter -> LB";
      slo = Lemur_slo.Slo.make ~t_min:3e8 ~t_max:100e9 ();
    }
  in
  match Strategy.place Strategy.Lemur c [ i ] with
  | Strategy.Infeasible { reason } -> Alcotest.failf "infeasible: %s" reason
  | Strategy.Placed p ->
      let has_of =
        List.exists
          (fun r ->
            Array.exists (fun l -> l = Plan.Ofswitch) r.Strategy.plan.Plan.locs)
          p.Strategy.chain_reports
      in
      if has_of then begin
        let art = Codegen.compile c p in
        match art.Codegen.openflow with
        | Some prog ->
            Alcotest.(check bool) "rules emitted" true
              (Lemur_openflow.Openflow.rule_count prog > 0)
        | None -> Alcotest.fail "expected OpenFlow rules"
      end

(* Every generated artifact text — the P4 source, each BESS script, the
   eBPF C and the OpenFlow rules — over the Fig 2 sweep on the testbed,
   a two-server SmartNIC + OpenFlow rack and a two-server Metron rack,
   folded into one digest. A generator change that moves any byte of
   any artifact moves it. *)
let test_artifact_digest () =
  let testbed = config () in
  let rack =
    Plan.default_config
      (Lemur_topology.Topology.testbed ~num_servers:2 ~smartnic:true ~ofswitch:true ())
  in
  let metron =
    { (Plan.default_config (Lemur_topology.Topology.testbed ~num_servers:2 ())) with
      Plan.metron_steering = true }
  in
  let fig2 =
    List.concat_map
      (fun set ->
        List.map (fun delta -> (testbed, set, delta))
          [ 0.5; 1.0; 1.5; 2.0; 2.5; 3.0; 3.5; 4.0 ])
      [ [ 1; 2; 3; 4 ]; [ 1; 2; 3 ]; [ 1; 2; 4 ]; [ 1; 3; 4 ]; [ 2; 3; 4 ] ]
  in
  let b = Buffer.create 65536 in
  List.iter
    (fun (c, set, delta) ->
      Printf.bprintf b "== %s delta %g\n"
        (String.concat "," (List.map string_of_int set)) delta;
      match Strategy.place Strategy.Lemur c (Lemur.Chains.inputs_for_delta c ~delta set) with
      | Strategy.Infeasible _ -> Buffer.add_string b "infeasible\n"
      | Strategy.Placed p ->
          let art = Codegen.compile c p in
          Option.iter
            (fun prog -> Printf.bprintf b "-- p4\n%s" prog.P4gen.source)
            art.Codegen.p4;
          List.iter
            (fun a -> Printf.bprintf b "-- bess %s\n%s" a.Bessgen.server a.Bessgen.script)
            art.Codegen.bess;
          List.iter
            (fun a -> Printf.bprintf b "-- ebpf %s\n%s" a.Ebpfgen.nf_id a.Ebpfgen.c_source)
            art.Codegen.ebpf;
          Option.iter
            (fun prog ->
              Buffer.add_string b
                (Format.asprintf "-- openflow@.%a@." Lemur_openflow.Openflow.pp prog))
            art.Codegen.openflow)
    (fig2 @ [ (rack, [ 4; 5 ], 1.0); (metron, [ 1; 2; 4 ], 0.5) ]);
  Alcotest.(check string) "artifact digest" "12660feb0c0db89d05b46aaf1305bd35"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let suite =
  [
    Alcotest.test_case "SPI/SI assignment" `Quick test_spi_assignment;
    Alcotest.test_case "P4 program structure" `Quick test_p4_program_structure;
    Alcotest.test_case "P4 auto-generated fraction" `Quick test_p4_loc_fraction;
    Alcotest.test_case "no P4 without a PISA ToR" `Quick test_p4_none_when_no_switch;
    Alcotest.test_case "BESS artifacts" `Quick test_bess_artifacts;
    Alcotest.test_case "BESS multi-core LB" `Quick test_bess_multicore_lb;
    Alcotest.test_case "eBPF artifacts" `Quick test_ebpf_artifacts;
    Alcotest.test_case "routing check" `Quick test_routing_check;
    Alcotest.test_case "semantic pipeline execution" `Quick test_semantic_pipeline_execution;
    Alcotest.test_case "semantic pipeline: canonical chains" `Quick test_semantic_pipeline_canonical_chains;
    Alcotest.test_case "metron codegen" `Quick test_metron_codegen;
    Alcotest.test_case "OpenFlow artifacts" `Quick test_openflow_artifacts;
    Alcotest.test_case "artifact digest" `Quick test_artifact_digest;
  ]
