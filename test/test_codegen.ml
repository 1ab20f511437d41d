open Lemur_placer
open Lemur_codegen

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

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
  let spis = List.map (fun pth -> pth.Spi.spi) (Spi.paths spi) in
  Alcotest.(check (list int)) "spis dense from 1" (List.init 10 succ) spis

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

(* The Scanf line parser the routing check used before it prefiltered
   and indexed its input: every line goes through Scanf. It stays here
   as the reference the library parser must agree with. *)
let reference_parse_entries source =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      match
        Scanf.sscanf line "/* entry */ set (spi=%d, si=%d) -> steer(%d, %d, %s@)"
          (fun a b c d p ->
            { Routing_check.e_spi = a; e_si = b; next_spi = c; next_si = d; port = p })
      with
      | entry -> Some entry
      | exception Scanf.Scan_failure _ | exception End_of_file
      | exception Failure _ ->
          None)
    (String.split_on_char '\n' source)

let scan_set line =
  match reference_parse_entries line with [ e ] -> Some e | _ -> None

(* The steering-entry line, as P4gen emits it. *)
let set_line (e : Routing_check.entry) =
  Printf.sprintf "  /* entry */ set (spi=%d, si=%d) -> steer(%d, %d, %s);" e.e_spi e.e_si
    e.next_spi e.next_si e.port

(* [source] with its first line satisfying [pick] replaced by [by]'s
   lines ([[]] drops it), or [None] when no line matches. *)
let rewrite_first source pick by =
  let rec go = function
    | [] -> None
    | l :: rest -> (
        match pick l with
        | Some x -> Some (by l x @ rest)
        | None -> Option.map (fun rest -> l :: rest) (go rest))
  in
  Option.map (String.concat "\n") (go (String.split_on_char '\n' source))

(* The first entry of service path 1 at an SI [at] accepts. *)
let path1_entry at l =
  match scan_set l with
  | Some e when e.Routing_check.e_spi = 1 && at e -> Some e
  | _ -> None

let classify_line l = if contains l "/* entry */ classify" then Some () else None

(* The program for chain set [set] at [delta], corrupted one way at a time:
   the routing check and the oracle must both reject every corruption. *)
let check_routing_corruptions (set, delta) =
  let c = config () in
  let p = place_chains ~delta ~set c in
  let where =
    Printf.sprintf "{%s} δ=%g" (String.concat "," (List.map string_of_int set)) delta
  in
  let art = Codegen.compile c p in
  (match Routing_check.verify p art with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: routing check failed: %s" where e);
  let prog =
    match art.Codegen.p4 with None -> Alcotest.fail "expected p4" | Some prog -> prog
  in
  let src = prog.P4gen.source in
  let corruptions =
    [
      ( "misdirected hop",
        rewrite_first src
          (path1_entry (fun e -> e.e_si >= 1 && e.port = "server_port"))
          (fun _ e -> [ set_line { e with port = "nic_port" } ]) );
      ( "misclassified path",
        rewrite_first src classify_line (fun l () ->
            [ String.sub l 0 (String.index l '>' + 1) ^ " steer(999, 0, pipeline);" ]) );
      ("duplicated classification", rewrite_first src classify_line (fun l () -> [ l; l ]));
      ("dropped classification", rewrite_first src classify_line (fun _ () -> []));
      ("dropped entry", rewrite_first src (path1_entry (fun e -> e.e_si >= 1)) (fun _ _ -> []));
      ( "wrong SI advance",
        rewrite_first src
          (path1_entry (fun e -> e.e_si >= 1))
          (fun _ e -> [ set_line { e with next_si = e.e_si } ]) );
      ( "wrong next SPI",
        rewrite_first src
          (path1_entry (fun e -> e.e_si >= 1))
          (fun _ e -> [ set_line { e with next_spi = e.next_spi + 100 } ]) );
      ( "non-egress terminal entry",
        rewrite_first src
          (path1_entry (fun e -> e.e_si = 0))
          (fun _ e -> [ set_line { e with port = "server_port" } ]) );
    ]
  in
  List.iter
    (fun (name, source') ->
      match source' with
      | None -> Alcotest.failf "%s %s: no line to corrupt" where name
      | Some source' -> (
          if String.equal source' src then
            Alcotest.failf "%s %s: source unchanged" where name;
          let art' = { art with Codegen.p4 = Some { prog with P4gen.source = source' } } in
          (match Routing_check.verify p art' with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "%s %s must fail the routing check" where name);
          match Lemur_check.Oracle.check ~artifact:art' c p with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "%s %s must fail the oracle" where name))
    corruptions

let test_routing_check () =
  List.iter check_routing_corruptions
    [ ([ 1; 2; 3; 4 ], 0.5); ([ 1; 2; 3; 4 ], 1.0); ([ 1; 2; 3 ], 0.5) ]

let reference_classifications source =
  List.filter_map
    (fun line ->
      match
        Scanf.sscanf (String.trim line)
          "/* entry */ classify (aggregate=%s@/path%d) -> steer(%d, %d, %s@)"
          (fun chain_id path s i p ->
            { Routing_check.chain_id; path; to_spi = s; to_si = i; to_port = p })
      with
      | c -> Some c
      | exception Scanf.Scan_failure _ | exception End_of_file
      | exception Failure _ ->
          None)
    (String.split_on_char '\n' source)

let parsers_agree source =
  let t = Routing_check.parse source in
  let reference = reference_parse_entries source in
  Routing_check.entries t = reference
  && Routing_check.classifications t = reference_classifications source
  && List.for_all
       (fun e ->
         let spi = e.Routing_check.e_spi and si = e.Routing_check.e_si in
         Routing_check.find t ~spi ~si
         = List.find_opt
             (fun r -> r.Routing_check.e_spi = spi && r.Routing_check.e_si = si)
             reference)
       reference
  && Routing_check.find t ~spi:(-7) ~si:0 = None

(* Generated P4 programs the mutations start from: the testbed at fig2a
   δ=1.0 and a two-server Metron rack. *)
let p4_sources =
  lazy
    (List.map
       (fun (c, set) ->
         match (Codegen.compile c (place_chains ~delta:1.0 ~set c)).Codegen.p4 with
         | Some prog -> prog.P4gen.source
         | None -> Alcotest.fail "expected p4")
       [
         (config (), [ 1; 2; 3; 4 ]);
         ( { (Plan.default_config (Lemur_topology.Topology.testbed ~num_servers:2 ())) with
             Plan.metron_steering = true },
           [ 1; 2; 4 ] );
       ])

let stray_comments =
  [|
    "/* -- library NF: ACL on src/dst fields -- */";
    "  /* rule */ add c1_acl entry 0: dst 10.0.0.0/8 -> c1_permit;";
    "/* entry set (spi=1, si=2) -> steer(1, 1, server_port); */";
    "/* entry */ sets (spi=1, si=1) -> steer(1, 0, pipeline);";
    "/* entry */ set (spi=x, si=1) -> steer(1, 0, pipeline);";
    "/* entry */ set (spi=99999999999999999999, si=1) -> steer(1, 0, pipeline);";
    "/* entry */ classify (aggregate=nopath) -> steer(1, 1, pipeline);";
    "/*";
    "/";
    "";
  |]

(* One mutation of line [i]: re-spacing (each space becomes none, one,
   two or a tab), tab indentation, truncation, a stray comment before
   it, or a duplicate of its key with another target, placed before or
   after it. Returns the lines that replace it. *)
let mutate rng line =
  match Lemur_util.Prng.int rng 6 with
  | 0 ->
      let b = Buffer.create (String.length line) in
      String.iter
        (fun ch ->
          if ch = ' ' then
            Buffer.add_string b
              (Lemur_util.Prng.choose rng [| ""; " "; "  "; "\t" |])
          else Buffer.add_char b ch)
        line;
      [ Buffer.contents b ]
  | 1 -> [ "\t" ^ String.trim line ]
  | 2 -> [ String.sub line 0 (Lemur_util.Prng.int rng (String.length line + 1)) ]
  | 3 -> [ Lemur_util.Prng.choose rng stray_comments; line ]
  | _ -> (
      match scan_set line with
      | None -> [ line; line ]
      | Some e ->
          let dup = set_line { e with next_spi = e.next_spi + 1; port = "dup_port" } in
          if Lemur_util.Prng.bool rng then [ dup; line ] else [ line; dup ])

let mutated_source seed =
  let rng = Lemur_util.Prng.create ~seed in
  let sources = Array.of_list (Lazy.force p4_sources) in
  let lines = ref (Array.of_list (String.split_on_char '\n' (Lemur_util.Prng.choose rng sources))) in
  for _ = 1 to 1 + Lemur_util.Prng.int rng 8 do
    let arr = !lines in
    let entries =
      List.filter (fun i -> contains arr.(i) "/* entry */") (List.init (Array.length arr) Fun.id)
    in
    let i =
      if entries <> [] && Lemur_util.Prng.int rng 5 > 0 then
        Lemur_util.Prng.choose rng (Array.of_list entries)
      else Lemur_util.Prng.int rng (Array.length arr)
    in
    lines :=
      Array.concat
        [
          Array.sub arr 0 i;
          Array.of_list (mutate rng arr.(i));
          Array.sub arr (i + 1) (Array.length arr - i - 1);
        ]
  done;
  String.concat "\n" (Array.to_list !lines)

let test_parser_cases () =
  let src = List.hd (Lazy.force p4_sources) in
  let check name source =
    if not (parsers_agree source) then Alcotest.failf "%s: parsers disagree" name
  in
  check "generated" src;
  List.iter
    (fun (name, line) -> check name line)
    [
      ("unspaced", "/*entry*/set(spi=1,si=2)->steer(1,1,server_port)");
      ("over-spaced", "  /*  entry  */   set  (spi=1,   si=2)  ->  steer(1,  1,  server_port);");
      ("tab-indented", "\t/* entry */ set (spi=1, si=2) -> steer(1, 1, server_port);");
      ("truncated", "  /* entry */ set (spi=1, si=2) -> ste");
      ("unspaced classify", "/*entry*/classify(aggregate=c1/path1)->steer(1,4,pipeline)");
      ("CR line ends", "/* entry */ set (spi=1, si=2) -> steer(1, 1, server_port);\r\n");
    ];
  Array.iter (check "stray comment") stray_comments;
  let t = Routing_check.parse "/*entry*/set(spi=1,si=2)->steer(1,1,server_port)" in
  Alcotest.(check bool) "unspaced entry parses" true
    (Routing_check.find t ~spi:1 ~si:2 <> None);
  (* duplicate keys: the first entry in source order wins *)
  let first = set_line { e_spi = 3; e_si = 2; next_spi = 3; next_si = 1; port = "nic_port" } in
  let second = set_line { e_spi = 3; e_si = 2; next_spi = 3; next_si = 1; port = "pipeline" } in
  let t = Routing_check.parse (String.concat "\n" [ first; second ]) in
  Alcotest.(check (option string)) "first duplicate wins" (Some "nic_port")
    (Option.map (fun e -> e.Routing_check.port) (Routing_check.find t ~spi:3 ~si:2));
  Alcotest.(check int) "every duplicate listed" 2 (List.length (Routing_check.entries t))

let parser_qcheck =
  QCheck.Test.make ~count:200 ~name:"prefiltered steering parser == Scanf reference"
    (QCheck.int_bound 1_000_000)
    (fun seed -> parsers_agree (mutated_source seed))

(* The generated text, not a model of it: an ACL's spec rules become
   [/* rule */] lines in spec order, and the parsed steering table walks
   the chain's one path through exactly one server hop (Encrypt). *)
(* The ports a packet classified by [cl] visits, one per NF hop, walking
   the parsed steering table until the egress entry (SI = 0). *)
let walk_steering t (cl : Routing_check.classification) =
  let rec go spi si ports steps =
    if steps > 64 then Alcotest.fail "steering loop"
    else
      match Routing_check.find t ~spi ~si with
      | None -> Alcotest.failf "no entry for (spi=%d, si=%d)" spi si
      | Some e when e.e_si = 0 -> List.rev ports
      | Some e -> go e.next_spi e.next_si (e.port :: ports) (steps + 1)
  in
  go cl.to_spi cl.to_si [] 0

let test_acl_rules_in_p4 () =
  let spec_text =
    "chain web slo(tmin='1Gbps') = ACL(rules=[{'dst_ip': '10.0.0.0/8', \
     'drop': False}, {'dst_ip': '0.0.0.0/0', 'drop': True}]) -> Encrypt -> IPv4Fwd"
  in
  match Lemur.Deployment.of_spec spec_text with
  | Error e -> Alcotest.failf "deploy failed: %s" e
  | Ok d -> (
      match d.Lemur.Deployment.artifact.Codegen.p4 with
      | None -> Alcotest.fail "expected p4"
      | Some prog ->
          let src = prog.P4gen.source in
          let rules =
            List.filter_map
              (fun line ->
                match
                  Scanf.sscanf (String.trim line) "/* rule */ add %s entry %d: dst %s -> %s@;"
                    (fun table i dst action -> (table, i, dst, action))
                with
                | (table, i, dst, action) ->
                    let nf = Filename.chop_suffix table "_acl" in
                    let verdict =
                      if String.equal action (nf ^ "_permit") then "permit"
                      else if String.equal action (nf ^ "_deny") then "deny"
                      else Alcotest.failf "rule %d: action %s is not %s's" i action table
                    in
                    Some (i, dst, verdict)
                | exception Scanf.Scan_failure _ | exception End_of_file -> None)
              (String.split_on_char '\n' src)
          in
          Alcotest.(check (list (triple int string string)))
            "rule lines" [ (0, "10.0.0.0/8", "permit"); (1, "0.0.0.0/0", "deny") ] rules;
          let t = Routing_check.parse src in
          match Routing_check.classifications t with
          | [ cl ] ->
              Alcotest.(check string) "classified chain" "web" cl.chain_id;
              let hops = walk_steering t cl in
              Alcotest.(check int) "one hop per NF" 3 (List.length hops);
              Alcotest.(check int) "one server hop" 1
                (List.length (List.filter (String.equal "server_port") hops))
          | cls -> Alcotest.failf "expected one classification, got %d" (List.length cls))

let test_semantic_pipeline_canonical_chains () =
  (* every service path of chains {1,2,3} is classified once and its
     emitted steering entries walk to egress through one hop per NF *)
  let c = config () in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 1; 2; 3 ] in
  match Lemur.Deployment.deploy c inputs with
  | Error e -> Alcotest.failf "deploy failed: %s" e
  | Ok d -> (
      match d.Lemur.Deployment.artifact.Codegen.p4 with
      | None -> Alcotest.fail "expected p4"
      | Some prog ->
          let t = Routing_check.parse prog.P4gen.source in
          List.iter
            (fun report ->
              let chain_id = report.Strategy.plan.Plan.input.Plan.id in
              let paths =
                Spi.paths_of_chain d.Lemur.Deployment.artifact.Codegen.spi chain_id
              in
              List.iteri
                (fun path_index path ->
                  match
                    List.filter
                      (fun (cl : Routing_check.classification) ->
                        String.equal cl.chain_id chain_id && cl.to_spi = path.Spi.spi)
                      (Routing_check.classifications t)
                  with
                  | [ cl ] ->
                      Alcotest.(check int)
                        (Printf.sprintf "%s path %d visits every hop" chain_id path_index)
                        (List.length path.Spi.nodes)
                        (List.length (walk_steering t cl))
                  | cls ->
                      Alcotest.failf "%s path %d: %d classifications" chain_id path_index
                        (List.length cls))
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

(* Each OpenFlow rule steers on the vid of the hop it implements: the
   node's own (SPI, SI), with SI its distance from the end of its path. *)
let check_openflow_vids (p : Strategy.placement) (art : Codegen.artifact) =
  let expected =
    List.concat_map
      (fun (path : Spi.path_info) ->
        let plan =
          (List.find
             (fun r -> String.equal r.Strategy.plan.Plan.input.Plan.id path.chain_id)
             p.chain_reports)
            .Strategy.plan
        in
        let len = List.length path.nodes in
        List.concat
          (List.mapi
             (fun i id ->
               if plan.Plan.locs.(id) = Plan.Ofswitch then [ (path.spi, len - i) ] else [])
             path.nodes))
      (Spi.paths art.spi)
  in
  let decoded =
    match art.openflow with
    | None -> []
    | Some prog ->
        List.map
          (fun (r : Lemur_openflow.Openflow.rule) ->
            match r.match_vid with
            | Some vid ->
                let h = Lemur_openflow.Openflow.Vlan.decode vid in
                (h.spi, h.si)
            | None -> Alcotest.fail "steering rule without a vid")
          prog.Lemur_openflow.Openflow.rules
  in
  Alcotest.(check (list (pair int int))) "rule vids decode to their hops" expected decoded

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
      Alcotest.(check bool) "NFs on the OpenFlow switch" true has_of;
      let art = Codegen.compile c p in
      match art.Codegen.openflow with
      | Some prog ->
          Alcotest.(check bool) "rules emitted" true
            (Lemur_openflow.Openflow.rule_count prog > 0);
          check_openflow_vids p art
      | None -> Alcotest.fail "expected OpenFlow rules"

(* Deploys [chains] (spec text, one service path each) on the OpenFlow
   rack, where a leading ACL lands on the switch. *)
let deploy_of_chains chains =
  let c = Plan.default_config (Lemur_topology.Topology.no_pisa_testbed ~ofswitch:true ()) in
  Lemur.Deployment.deploy c
    (List.mapi
       (fun k chain ->
         let id = Printf.sprintf "a%d" k in
         {
           Plan.id;
           graph = Lemur_spec.Loader.chain_of_string ~name:id chain;
           slo = Lemur_slo.Slo.best_effort;
         })
       chains)

(* The vid is the OpenFlow steering key, so no two hops may share one.
   It packs an 8-bit SPI and a 4-bit SI: a path past SPI 255, or an
   OpenFlow hop past SI 15, has no vid of its own (masking or capping it
   would alias another hop's), so the deployment is refused. *)
let test_openflow_vid_aliasing () =
  let refused name chains =
    match deploy_of_chains chains with
    | Ok _ -> Alcotest.failf "%s: vids alias, deployment must be refused" name
    | Error e ->
        Alcotest.(check bool) (name ^ ": " ^ e) true (String.starts_with ~prefix:"OpenFlow: " e)
  in
  (match deploy_of_chains (List.init Lemur_openflow.Openflow.Vlan.max_spi (fun _ -> "ACL")) with
  | Error e -> Alcotest.failf "255 paths must deploy: %s" e
  | Ok d -> check_openflow_vids d.Lemur.Deployment.placement d.Lemur.Deployment.artifact);
  (* ACL and Monitor on the switch around a server hop: two runs, each
     steered on its own SI. *)
  (match deploy_of_chains [ "ACL -> Dedup -> Monitor" ] with
  | Error e -> Alcotest.failf "split OpenFlow path must deploy: %s" e
  | Ok d ->
      let p = d.Lemur.Deployment.placement in
      Alcotest.(check bool) "placed switch, server, switch" true
        (List.map (fun r -> r.Strategy.plan.Plan.locs) p.chain_reports
        = [ [| Plan.Ofswitch; Plan.Server; Plan.Ofswitch |] ]);
      check_openflow_vids p d.Lemur.Deployment.artifact);
  refused "300 paths" (List.init 300 (fun _ -> "ACL"));
  refused "ACL at SI 17" [ String.concat " -> " ("ACL" :: List.init 16 (fun _ -> "Dedup")) ]

(* The artifact sweep: the Fig 2 sweep on the testbed, a two-server
   SmartNIC + OpenFlow rack and a two-server Metron rack. [f] gets each
   cell's header line and its artifact, or [None] when infeasible. *)
let iter_sweep f =
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
  List.iter
    (fun (c, set, delta) ->
      let header =
        Printf.sprintf "== %s delta %g\n"
          (String.concat "," (List.map string_of_int set)) delta
      in
      match Strategy.place Strategy.Lemur c (Lemur.Chains.inputs_for_delta c ~delta set) with
      | Strategy.Infeasible _ -> f header None
      | Strategy.Placed p -> f header (Some (Codegen.compile c p)))
    (fig2 @ [ (rack, [ 4; 5 ], 1.0); (metron, [ 1; 2; 4 ], 0.5) ])

(* Every generated artifact text — the P4 source, each BESS script, the
   eBPF C and the OpenFlow rules — over the sweep, folded into one
   digest. A generator change that moves any byte of any artifact moves
   it. *)
let test_artifact_digest () =
  let b = Buffer.create 65536 in
  iter_sweep (fun header art ->
      Buffer.add_string b header;
      match art with
      | None -> Buffer.add_string b "infeasible\n"
      | Some art ->
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
            art.Codegen.openflow);
  Alcotest.(check string) "artifact digest" "12660feb0c0db89d05b46aaf1305bd35"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* What the text digest does not see, over the same sweep: the line
   statistics the emitters count as they write, the BESS scheduler trees
   (they hold each chain's t_max rate limit), the eBPF instruction
   counts and the OpenFlow rule count. *)
let test_structure_digest () =
  let b = Buffer.create 16384 in
  iter_sweep (fun header art ->
      Buffer.add_string b header;
      match art with
      | None -> Buffer.add_string b "infeasible\n"
      | Some art ->
          let loc = Codegen.loc art in
          Printf.bprintf b "loc %d %d %d %h\n" loc.Codegen.library_loc
            loc.Codegen.generated_loc loc.Codegen.steering_loc
            loc.Codegen.generated_fraction;
          Option.iter
            (fun prog ->
              let s = prog.P4gen.stats in
              Printf.bprintf b "p4 %d %d %d %d\n" s.P4gen.total_lines
                s.P4gen.library_lines s.P4gen.generated_lines s.P4gen.steering_lines)
            art.Codegen.p4;
          List.iter
            (fun a ->
              Printf.bprintf b "bess %s %d\n%s" a.Bessgen.server a.Bessgen.generated_lines
                (Format.asprintf "%a" Lemur_bess.Scheduler.pp a.Bessgen.scheduler))
            art.Codegen.bess;
          List.iter
            (fun a ->
              Printf.bprintf b "ebpf %s %d %d\n" a.Ebpfgen.nf_id
                a.Ebpfgen.instruction_count a.Ebpfgen.generated_lines)
            art.Codegen.ebpf;
          Option.iter
            (fun prog ->
              Printf.bprintf b "openflow %d\n" (Lemur_openflow.Openflow.rule_count prog))
            art.Codegen.openflow);
  Alcotest.(check string) "structure digest" "541c92a36a9ecd52f4da0454650f7a60"
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
    Alcotest.test_case "steering parser edge cases" `Quick test_parser_cases;
    Alcotest.test_case "ACL rules in the emitted P4" `Quick test_acl_rules_in_p4;
    Alcotest.test_case "semantic pipeline: canonical chains" `Quick
      test_semantic_pipeline_canonical_chains;
    Alcotest.test_case "metron codegen" `Quick test_metron_codegen;
    Alcotest.test_case "OpenFlow artifacts" `Quick test_openflow_artifacts;
    Alcotest.test_case "OpenFlow vid aliasing" `Quick test_openflow_vid_aliasing;
    Alcotest.test_case "artifact digest" `Quick test_artifact_digest;
    Alcotest.test_case "structure digest" `Quick test_structure_digest;
    QCheck_alcotest.to_alcotest ~long:false parser_qcheck;
  ]
