open Lemur_p4
open Lemur_nf

let test_header_library () =
  Alcotest.(check bool) "nsh known" true (P4header.lookup "nsh" <> None);
  Alcotest.(check int) "vlan is 32 bits" 32 (P4header.total_bits P4header.vlan);
  Alcotest.(check bool) "unknown header" true (P4header.lookup "gre" = None);
  let custom = { P4header.header_name = "gre"; fields = [ { P4header.field_name = "proto"; bits = 16 } ] } in
  P4header.register custom;
  Alcotest.(check bool) "registered" true (P4header.lookup "gre" <> None);
  P4header.register custom (* idempotent *);
  let conflicting = { custom with P4header.fields = [] } in
  Alcotest.check_raises "conflicting layout"
    (Invalid_argument "P4header.register: conflicting layout for \"gre\"")
    (fun () -> P4header.register conflicting)

let test_parser_merge_union () =
  let acl = P4nf.parse_tree Kind.Acl in
  let nat = P4nf.parse_tree Kind.Nat in
  let merged = Parsetree.merge acl nat in
  Alcotest.(check bool) "has tcp" true (List.mem "tcp" (Parsetree.headers merged));
  Alcotest.(check bool) "has ipv4" true (List.mem "ipv4" (Parsetree.headers merged));
  (* Merge is idempotent and commutative (as sets). *)
  Alcotest.(check bool) "idempotent" true
    (Parsetree.equal merged (Parsetree.merge merged merged));
  Alcotest.(check bool) "commutative" true
    (Parsetree.equal merged (Parsetree.merge nat acl))

let test_parser_merge_conflict () =
  let a =
    Parsetree.make ~root:"ethernet"
      [
        {
          Parsetree.header = "ethernet";
          select_field = Some "ether_type";
          transitions = [ { Parsetree.select_value = Some 0x1234; next = "ipv4" } ];
        };
      ]
  in
  let b =
    Parsetree.make ~root:"ethernet"
      [
        {
          Parsetree.header = "ethernet";
          select_field = Some "ether_type";
          transitions = [ { Parsetree.select_value = Some 0x1234; next = "vlan" } ];
        };
      ]
  in
  match Parsetree.merge a b with
  | _ -> Alcotest.fail "expected conflict"
  | exception Parsetree.Conflict _ -> ()

let test_parser_depth () =
  Alcotest.(check int) "acl depth" 2 (Parsetree.depth (P4nf.parse_tree Kind.Acl));
  Alcotest.(check int) "nat depth" 3 (Parsetree.depth (P4nf.parse_tree Kind.Nat))

let test_tablegraph_basics () =
  let g = Tablegraph.create () in
  let tab name =
    { Tablegraph.table_name = name; owner = "t"; match_fields = []; action = "a" }
  in
  Tablegraph.add_table g (tab "a");
  Tablegraph.add_table g (tab "b");
  Tablegraph.add_table g (tab "c");
  Tablegraph.add_dep g ~before:"a" ~after:"b";
  Tablegraph.add_dep g ~before:"b" ~after:"c";
  Alcotest.(check int) "count" 3 (Tablegraph.table_count g);
  Alcotest.(check int) "critical path" 3 (Tablegraph.critical_path g);
  Alcotest.(check bool) "no cycle" false (Tablegraph.has_cycle g);
  Tablegraph.add_dep g ~before:"c" ~after:"a";
  Alcotest.(check bool) "cycle detected" true (Tablegraph.has_cycle g)

let test_stagepack_respects_deps () =
  let g = Tablegraph.create () in
  let tab name =
    { Tablegraph.table_name = name; owner = "t"; match_fields = []; action = "a" }
  in
  List.iter (fun n -> Tablegraph.add_table g (tab n)) [ "a"; "b"; "c"; "d" ];
  Tablegraph.add_dep g ~before:"a" ~after:"c";
  Tablegraph.add_dep g ~before:"b" ~after:"c";
  Tablegraph.add_dep g ~before:"c" ~after:"d";
  let asg = Stagepack.pack ~capacity:4 g in
  let stage n = List.assoc n asg.Stagepack.stage_of_table in
  Alcotest.(check bool) "a before c" true (stage "a" < stage "c");
  Alcotest.(check bool) "b before c" true (stage "b" < stage "c");
  Alcotest.(check bool) "c before d" true (stage "c" < stage "d");
  Alcotest.(check int) "3 stages" 3 asg.Stagepack.stages_used;
  (* parallel a, b share stage 0 *)
  Alcotest.(check int) "a at 0" 0 (stage "a");
  Alcotest.(check int) "b at 0" 0 (stage "b")

let test_stagepack_capacity () =
  let g = Tablegraph.create () in
  let tab name =
    { Tablegraph.table_name = name; owner = "t"; match_fields = []; action = "a" }
  in
  List.iter (fun n -> Tablegraph.add_table g (tab n)) [ "a"; "b"; "c"; "d"; "e" ];
  (* 5 independent tables, capacity 2 -> 3 stages; capacity 1 -> 5. *)
  Alcotest.(check int) "capacity 2" 3 (Stagepack.pack ~capacity:2 g).Stagepack.stages_used;
  Alcotest.(check int) "capacity 1" 5 (Stagepack.pack ~capacity:1 g).Stagepack.stages_used;
  Alcotest.(check bool) "fits in 3" true (Stagepack.fits ~capacity:2 ~max_stages:3 g);
  Alcotest.(check bool) "not in 2" false (Stagepack.fits ~capacity:2 ~max_stages:2 g)

(* The §5.2 extreme configuration: BPF -> 11x NAT (branched) -> IPv4Fwd,
   with 10 NATs placed on the switch (one went to the server). The paper
   reports: the compiler fits it in 12 stages, a conservative static
   estimate said 14, and naive codegen without dependency elimination
   needs 27 stages. *)
let extreme_projection () =
  let nats =
    List.init 10 (fun i ->
        { Pipeline.nf_id = Printf.sprintf "c0_NAT%d" i; kind = Kind.Nat })
  in
  let bpf = { Pipeline.nf_id = "c0_BPF"; kind = Kind.Bpf } in
  let fwd = { Pipeline.nf_id = "c0_Fwd"; kind = Kind.Ipv4_fwd } in
  {
    Pipeline.chain_id = "c0";
    nf_nodes = (bpf :: nats) @ [ fwd ];
    nf_edges =
      List.map (fun n -> ("c0_BPF", n.Pipeline.nf_id)) nats
      @ List.map (fun n -> (n.Pipeline.nf_id, "c0_Fwd")) nats;
    entry_nfs = [ "c0_BPF" ];
    crosses_platform = true (* the 11th NAT lives on the server *);
  }

let test_extreme_config_stages () =
  let proj = extreme_projection () in
  let optimized = Pipeline.table_graph ~mode:Pipeline.Optimized [ proj ] in
  let naive = Pipeline.table_graph ~mode:Pipeline.Naive [ proj ] in
  let capacity = Lemur_platform.Pisa.tofino_32x100g.Lemur_platform.Pisa.tables_per_stage in
  let packed = (Stagepack.pack ~capacity optimized).Stagepack.stages_used in
  let estimated = Stagepack.estimate ~capacity optimized in
  let naive_n = Stagepack.naive_stages naive in
  (* Shape assertions from §5.2: packed fits 12 stages, the static
     estimate does not, and naive codegen is far above both. *)
  Alcotest.(check bool) "compiler fits 12 stages" true (packed <= 12);
  Alcotest.(check bool) "estimate exceeds packed" true (estimated > packed);
  Alcotest.(check bool) "estimate exceeds 12" true (estimated > 12);
  Alcotest.(check bool) "naive far above" true (naive_n >= 25);
  Alcotest.(check bool) "naive above estimate" true (naive_n > estimated)

let test_optimization_a_no_nsh_for_switch_only () =
  let proj =
    {
      Pipeline.chain_id = "c1";
      nf_nodes = [ { Pipeline.nf_id = "c1_ACL"; kind = Kind.Acl } ];
      nf_edges = [];
      entry_nfs = [ "c1_ACL" ];
      crosses_platform = false;
    }
  in
  let g = Pipeline.table_graph ~mode:Pipeline.Optimized [ proj ] in
  let names = List.map (fun t -> t.Tablegraph.table_name) (Tablegraph.tables g) in
  Alcotest.(check bool) "no nsh_decap" false (List.mem "nsh_decap" names);
  Alcotest.(check bool) "no nsh_encap" false (List.mem "nsh_encap" names);
  Alcotest.(check bool) "steering present" true (List.mem "ingress_steering" names)

let test_parallel_arms_pack_together () =
  (* Two parallel arms after a split must share stages (optimization d):
     with capacity 4, ACL arms in parallel use the same stage. *)
  let node id kind = { Pipeline.nf_id = id; kind } in
  let proj =
    {
      Pipeline.chain_id = "c2";
      nf_nodes = [ node "c2_BPF" Kind.Bpf; node "c2_ACL0" Kind.Acl; node "c2_ACL1" Kind.Acl ];
      nf_edges = [ ("c2_BPF", "c2_ACL0"); ("c2_BPF", "c2_ACL1") ];
      entry_nfs = [ "c2_BPF" ];
      crosses_platform = false;
    }
  in
  let g = Pipeline.table_graph ~mode:Pipeline.Optimized [ proj ] in
  let asg = Stagepack.pack ~capacity:4 g in
  let stage n = List.assoc n asg.Stagepack.stage_of_table in
  Alcotest.(check int) "arms share a stage" (stage "c2_ACL0_acl") (stage "c2_ACL1_acl");
  (* And a split table exists because BPF fans out. *)
  Alcotest.(check bool) "split table" true
    (List.exists
       (fun t -> t.Tablegraph.table_name = "c2_BPF_split")
       (Tablegraph.tables g))

let test_unified_parser_includes_nsh () =
  let proj = extreme_projection () in
  let parser = Pipeline.unified_parser [ proj ] in
  Alcotest.(check bool) "nsh parsed" true (List.mem "nsh" (Parsetree.headers parser));
  Alcotest.(check bool) "tcp parsed" true (List.mem "tcp" (Parsetree.headers parser))

(* ------------------------------------------------------------------ *)
(* Bit packing and behavioural parser execution                        *)

let eth ?(ether_type = 0x0800) () =
  P4header.ethernet |> fun h ->
  Bitpack.write h [ ("dst_addr", 0x1122); ("src_addr", 0x3344); ("ether_type", ether_type) ]

let ipv4_bytes ?(protocol = 6) () =
  Bitpack.write P4header.ipv4
    [
      ("version", 4); ("ihl", 5); ("ttl", 64); ("protocol", protocol);
      ("src_addr", 0x0A000001); ("dst_addr", 0x0A000002);
    ]

let tcp_bytes () =
  Bitpack.write P4header.tcp [ ("src_port", 1234); ("dst_port", 443) ]

let test_bitpack_roundtrip () =
  let b =
    Bitpack.write P4header.vlan [ ("pcp", 5); ("dei", 1); ("vid", 0xABC); ("ether_type", 0x0800) ]
  in
  Alcotest.(check int) "4 bytes" 4 (Bytes.length b);
  let fields = Bitpack.read P4header.vlan b ~bit_offset:0 in
  Alcotest.(check (option int)) "pcp" (Some 5) (List.assoc_opt "pcp" fields);
  Alcotest.(check (option int)) "vid" (Some 0xABC) (List.assoc_opt "vid" fields);
  Alcotest.(check int) "field accessor" 0x0800
    (Bitpack.field P4header.vlan b ~bit_offset:0 "ether_type");
  (match Bitpack.read P4header.ipv4 (Bytes.create 4) ~bit_offset:0 with
  | _ -> Alcotest.fail "short packet must be rejected"
  | exception Invalid_argument _ -> ())

let test_bitpack_matches_nsh_codec () =
  (* RFC 8300's MD-type-2 base + service path header, written byte by
     byte: version 0, TTL 63, length 2 words, MD type 2, next protocol
     IPv4, then the 24-bit SPI and the 8-bit SI. The P4 header layout
     must find SPI and SI where the RFC puts them. *)
  let encoded =
    Bytes.of_string "\x0f\xc2\x02\x01\xab\xcd\xef\x2a"
  in
  (* the P4 nsh layout includes the 128-bit MD context; pad the packet *)
  let padded = Bytes.cat encoded (Bytes.create 16) in
  Alcotest.(check int) "spi field" 0xABCDEF
    (Bitpack.field P4header.nsh padded ~bit_offset:0 "spi");
  Alcotest.(check int) "si field" 42
    (Bitpack.field P4header.nsh padded ~bit_offset:0 "si")

let test_parse_exec_tcp_packet () =
  let packet = Bytes.concat Bytes.empty [ eth (); ipv4_bytes (); tcp_bytes () ] in
  let out = Parse_exec.run (P4nf.parse_tree Kind.Nat) packet in
  Alcotest.(check bool) "accepted" true out.Parse_exec.accepted;
  Alcotest.(check (list string)) "headers in order" [ "ethernet"; "ipv4"; "tcp" ]
    (List.map (fun e -> e.Parse_exec.header) out.Parse_exec.headers);
  Alcotest.(check (option int)) "dst port" (Some 443)
    (Parse_exec.header_field out ~header:"tcp" ~field:"dst_port")

let test_parse_exec_udp_branch () =
  let packet =
    Bytes.concat Bytes.empty
      [ eth (); ipv4_bytes ~protocol:17 ();
        Bitpack.write P4header.udp [ ("src_port", 53); ("dst_port", 53) ] ]
  in
  let out = Parse_exec.run (P4nf.parse_tree Kind.Lb) packet in
  Alcotest.(check (list string)) "udp branch taken" [ "ethernet"; "ipv4"; "udp" ]
    (List.map (fun e -> e.Parse_exec.header) out.Parse_exec.headers)

let test_parse_exec_unknown_ethertype_stops () =
  let packet = Bytes.concat Bytes.empty [ eth ~ether_type:0x86DD (); ipv4_bytes () ] in
  let out = Parse_exec.run (P4nf.parse_tree Kind.Acl) packet in
  (* no transition for IPv6 and no default: parsing stops after eth *)
  Alcotest.(check (list string)) "only ethernet" [ "ethernet" ]
    (List.map (fun e -> e.Parse_exec.header) out.Parse_exec.headers);
  Alcotest.(check bool) "still accepted" true out.Parse_exec.accepted

let test_parse_exec_truncated_rejected () =
  let packet = Bytes.sub (Bytes.concat Bytes.empty [ eth (); ipv4_bytes () ]) 0 20 in
  let out = Parse_exec.run (P4nf.parse_tree Kind.Acl) packet in
  Alcotest.(check bool) "rejected" false out.Parse_exec.accepted

let test_merged_parser_accepts_both () =
  (* §A.2.1: the merged parser of Detunnel (vlan) and NAT (l4) accepts
     both NF's packets. *)
  let merged = Parsetree.merge (P4nf.parse_tree Kind.Detunnel) (P4nf.parse_tree Kind.Nat) in
  let vlan_packet =
    Bytes.concat Bytes.empty
      [
        eth ~ether_type:0x8100 ();
        Bitpack.write P4header.vlan [ ("vid", 7); ("ether_type", 0x0800) ];
        ipv4_bytes ();
        tcp_bytes ();
      ]
  in
  let plain_packet = Bytes.concat Bytes.empty [ eth (); ipv4_bytes (); tcp_bytes () ] in
  let names out = List.map (fun e -> e.Parse_exec.header) out.Parse_exec.headers in
  Alcotest.(check (list string)) "vlan path"
    [ "ethernet"; "vlan"; "ipv4"; "tcp" ]
    (names (Parse_exec.run merged vlan_packet));
  Alcotest.(check (list string)) "plain path" [ "ethernet"; "ipv4"; "tcp" ]
    (names (Parse_exec.run merged plain_packet))

(* The O(V·E) list scheduler [Stagepack.pack] replaced, kept as the
   reference the linear packer must match: each round rescans the whole
   dependency list (newest first) for every unplaced table, in
   insertion order. Also returns the number of rounds it took. *)
let reference_predecessors g name =
  List.filter_map
    (fun (before, after) -> if String.equal after name then Some before else None)
    (List.rev (Tablegraph.deps g))

let reference_pack ~capacity g =
  let names = List.map (fun t -> t.Tablegraph.table_name) (Tablegraph.tables g) in
  let stage_of = Hashtbl.create 16 in
  let loads = Hashtbl.create 16 in
  let load s = Option.value (Hashtbl.find_opt loads s) ~default:0 in
  let remaining = ref names and rounds = ref 0 in
  while !remaining <> [] do
    incr rounds;
    let still = ref [] in
    List.iter
      (fun name ->
        let preds = reference_predecessors g name in
        if List.for_all (Hashtbl.mem stage_of) preds then begin
          let stage =
            ref (List.fold_left (fun acc p -> max acc (Hashtbl.find stage_of p + 1)) 0 preds)
          in
          while load !stage >= capacity do
            incr stage
          done;
          Hashtbl.replace stage_of name !stage;
          Hashtbl.replace loads !stage (load !stage + 1)
        end
        else still := name :: !still)
      !remaining;
    if List.length !still = List.length !remaining then failwith "cycle";
    remaining := List.rev !still
  done;
  let stage_of_table = List.map (fun n -> (n, Hashtbl.find stage_of n)) names in
  let stages_used = List.fold_left (fun acc (_, s) -> max acc (s + 1)) 0 stage_of_table in
  ({ Stagepack.stages_used; stage_of_table }, !rounds)

(* A random DAG over [n] tables inserted in index order: edges run from
   lower to higher rank under a random permutation, so the insertion
   order is not topological. Some edges are added twice. *)
let random_dag ~seed n =
  let rng = Random.State.make [| seed |] in
  let rank = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = rank.(i) in
    rank.(i) <- rank.(j);
    rank.(j) <- t
  done;
  let g = Tablegraph.create () in
  let name i = Printf.sprintf "t%d" i in
  for i = 0 to n - 1 do
    Tablegraph.add_table g
      { Tablegraph.table_name = name i; owner = "x"; match_fields = []; action = "a" }
  done;
  for _ = 1 to 2 * n do
    let a = Random.State.int rng n and b = Random.State.int rng n in
    if rank.(a) < rank.(b) then Tablegraph.add_dep g ~before:(name a) ~after:(name b)
  done;
  g

let test_stagepack_matches_reference () =
  (* Inserted in reverse dependency order: one table per round. *)
  let g = Tablegraph.create () in
  let name i = Printf.sprintf "t%d" i in
  for i = 5 downto 0 do
    Tablegraph.add_table g
      { Tablegraph.table_name = name i; owner = "x"; match_fields = []; action = "a" }
  done;
  for i = 0 to 4 do
    Tablegraph.add_dep g ~before:(name i) ~after:(name (i + 1))
  done;
  let expected, rounds = reference_pack ~capacity:2 g in
  Alcotest.(check int) "six rounds" 6 rounds;
  let got = Stagepack.pack ~capacity:2 g in
  Alcotest.(check (list (pair string int))) "stage_of_table"
    expected.Stagepack.stage_of_table got.Stagepack.stage_of_table;
  Alcotest.(check int) "stages_used" expected.Stagepack.stages_used got.Stagepack.stages_used;
  Tablegraph.add_dep g ~before:(name 5) ~after:(name 0);
  Alcotest.check_raises "cycle" (Invalid_argument "Stagepack.pack: dependency cycle")
    (fun () -> ignore (Stagepack.pack ~capacity:2 g))

let qcheck_cases =
  let open QCheck in
  let p4_kinds = List.filter P4nf.supports Kind.all in
  [
    (* Stage packing always respects dependencies and capacity on random
       layered DAGs. *)
    Test.make ~name:"packing respects deps and capacity" ~count:100
      (pair (int_range 1 4) (int_range 2 16))
      (fun (capacity, n) ->
        let g = Tablegraph.create () in
        for i = 0 to n - 1 do
          Tablegraph.add_table g
            {
              Tablegraph.table_name = Printf.sprintf "t%d" i;
              owner = "x";
              match_fields = [];
              action = "a";
            }
        done;
        (* chain deps i -> i+2 to create overlap *)
        for i = 0 to n - 3 do
          Tablegraph.add_dep g
            ~before:(Printf.sprintf "t%d" i)
            ~after:(Printf.sprintf "t%d" (i + 2))
        done;
        let asg = Stagepack.pack ~capacity g in
        let stage name = List.assoc name asg.Stagepack.stage_of_table in
        let deps_ok =
          List.for_all (fun (a, b) -> stage a < stage b) (Tablegraph.deps g)
        in
        let loads = Hashtbl.create 8 in
        List.iter
          (fun (_, s) ->
            Hashtbl.replace loads s (1 + Option.value (Hashtbl.find_opt loads s) ~default:0))
          asg.Stagepack.stage_of_table;
        let capacity_ok = Hashtbl.fold (fun _ l acc -> acc && l <= capacity) loads true in
        deps_ok && capacity_ok);
    (* The linear packer agrees with the reference list scheduler on
       random non-topologically inserted DAGs, and predecessor lists
       keep the reference's newest-first order. *)
    Test.make ~name:"packer matches reference scheduler" ~count:300
      (* no shrinker: a new seed is a new graph, not a smaller one *)
      (make
         ~print:(fun (c, n, seed) -> Printf.sprintf "capacity %d, %d tables, seed %d" c n seed)
         Gen.(triple (int_range 1 4) (int_range 1 40) (int_bound 1_000_000)))
      (fun (capacity, n, seed) ->
        let g = random_dag ~seed n in
        let expected, _ = reference_pack ~capacity g in
        let got = Stagepack.pack ~capacity g in
        got = expected
        && List.for_all
             (fun t ->
               let name = t.Tablegraph.table_name in
               Tablegraph.predecessors g name = reference_predecessors g name)
             (Tablegraph.tables g));
    (* Merging any two NF parsers never loses headers. *)
    Test.make ~name:"parser merge preserves headers" ~count:50
      (pair (oneofl p4_kinds) (oneofl p4_kinds))
      (fun (k1, k2) ->
        let t1 = P4nf.parse_tree k1 and t2 = P4nf.parse_tree k2 in
        let merged = Parsetree.merge t1 t2 in
        List.for_all
          (fun h -> List.mem h (Parsetree.headers merged))
          (Parsetree.headers t1 @ Parsetree.headers t2));
  ]

let suite =
  [
    Alcotest.test_case "header library" `Quick test_header_library;
    Alcotest.test_case "parser merge union" `Quick test_parser_merge_union;
    Alcotest.test_case "parser merge conflict" `Quick test_parser_merge_conflict;
    Alcotest.test_case "parser depth" `Quick test_parser_depth;
    Alcotest.test_case "tablegraph basics" `Quick test_tablegraph_basics;
    Alcotest.test_case "stagepack respects deps" `Quick test_stagepack_respects_deps;
    Alcotest.test_case "stagepack capacity" `Quick test_stagepack_capacity;
    Alcotest.test_case "stagepack matches reference" `Quick test_stagepack_matches_reference;
    Alcotest.test_case "extreme config (10 NAT) stages" `Quick test_extreme_config_stages;
    Alcotest.test_case "opt (a): no NSH when all-switch" `Quick
      test_optimization_a_no_nsh_for_switch_only;
    Alcotest.test_case "opt (d): parallel arms pack" `Quick
      test_parallel_arms_pack_together;
    Alcotest.test_case "unified parser has NSH" `Quick test_unified_parser_includes_nsh;
    Alcotest.test_case "bitpack roundtrip" `Quick test_bitpack_roundtrip;
    Alcotest.test_case "bitpack matches NSH codec" `Quick test_bitpack_matches_nsh_codec;
    Alcotest.test_case "parse exec: tcp packet" `Quick test_parse_exec_tcp_packet;
    Alcotest.test_case "parse exec: udp branch" `Quick test_parse_exec_udp_branch;
    Alcotest.test_case "parse exec: unknown ethertype" `Quick test_parse_exec_unknown_ethertype_stops;
    Alcotest.test_case "parse exec: truncated packet" `Quick test_parse_exec_truncated_rejected;
    Alcotest.test_case "merged parser accepts both" `Quick test_merged_parser_accepts_both;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases
