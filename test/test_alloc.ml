(* Direct tests for core allocation and server assignment (§3.2). *)
open Lemur_placer
open Lemur_spec

let config ?(num_servers = 1) ?(cores_per_socket = 8) () =
  Plan.default_config
    (Lemur_topology.Topology.testbed ~num_servers ~cores_per_socket ())

let input ?(id = "c") ?(t_min = 0.0) text =
  {
    Plan.id;
    graph = Loader.chain_of_string ~name:id text;
    slo = Lemur_slo.Slo.make ~t_min ~t_max:(Lemur_util.Units.gbps 100.0) ();
  }

let server_plan c i =
  (* everything that can go on the server goes there; the rest on the switch *)
  let g = i.Plan.graph in
  let locs =
    Array.init (Graph.size g) (fun id ->
        let allowed =
          Plan.allowed_locations c (Graph.node g id).Graph.instance
        in
        if List.mem Plan.Server allowed then Plan.Server else List.hd allowed)
  in
  Plan.elaborate c i locs

let test_min_allocation () =
  let c = config () in
  let plan = server_plan c (input "Encrypt -> Decrypt") in
  match Alloc.allocate c Alloc.No_extra [ plan ] with
  | None -> Alcotest.fail "fits easily"
  | Some [ a ] ->
      Alcotest.(check int) "one subgroup, one core" 1 (Alloc.cores_used a);
      Alcotest.(check int) "one segment pinned" 1 (List.length a.Alloc.seg_server)
  | Some _ -> Alcotest.fail "one chain in, one alloc out"

let test_allocation_respects_budget () =
  (* 16 single-NF chains on a 15-core server cannot all get a core. *)
  let c = config () in
  let plans =
    List.init 16 (fun k ->
        server_plan c (input ~id:(Printf.sprintf "c%d" k) "Encrypt"))
  in
  Alcotest.(check bool) "16 subgroups do not fit 15 cores" true
    (Alloc.allocate c Alloc.No_extra plans = None);
  let plans15 = Lemur_util.Listx.take 15 plans in
  Alcotest.(check bool) "15 fit exactly" true
    (Alloc.allocate c Alloc.No_extra plans15 <> None)

let test_slo_driven_meets_tmin_first () =
  let c = config () in
  (* two chains: one needs 2 Encrypt cores for its t_min, the other is
     best-effort; the needy chain must be served first *)
  let needy = server_plan c (input ~id:"needy" ~t_min:4e9 "Encrypt") in
  let bulk = server_plan c (input ~id:"bulk" "Decrypt") in
  match Alloc.allocate c Alloc.Slo_driven [ needy; bulk ] with
  | None -> Alcotest.fail "feasible"
  | Some allocs ->
      let a = List.find (fun a -> a.Alloc.plan.Plan.input.Plan.id = "needy") allocs in
      Alcotest.(check bool) "needy got enough cores" true
        (Alloc.capacity_of c a >= 4e9)

let test_non_replicable_never_grows () =
  let c = config () in
  let plan = server_plan c (input ~id:"lim" ~t_min:50e9 "Limiter") in
  match Alloc.allocate c Alloc.Slo_driven [ plan ] with
  | None -> Alcotest.fail "min allocation fits"
  | Some [ a ] ->
      Alcotest.(check int) "limiter stays on one core" 1 a.Alloc.sg_cores.(0)
  | Some _ -> Alcotest.fail "one alloc"

let test_link_loads () =
  let c = config () in
  (* Encrypt(server) -> ACL(switch) -> Decrypt(server): two bounces *)
  let i = input "Encrypt -> ACL -> Decrypt" in
  let locs = [| Plan.Server; Plan.Switch; Plan.Server |] in
  let plan = Plan.elaborate c i locs in
  match Alloc.allocate c Alloc.No_extra [ plan ] with
  | None -> Alcotest.fail "fits"
  | Some [ a ] ->
      let loads = Alloc.link_loads c a in
      Alcotest.(check (float 1e-9)) "two link traversals" 2.0
        (List.assoc "server0" loads)
  | Some _ -> Alcotest.fail "one alloc"

let test_assign_only_multi_server () =
  let c = config ~num_servers:2 ~cores_per_socket:4 () in
  (* two chains, each wanting 6 cores: they must land on different
     servers (7 NF cores each) *)
  let mk id = server_plan c (input ~id "Encrypt") in
  let p1 = mk "a" and p2 = mk "b" in
  match Alloc.assign_only c [ (p1, [| 6 |]); (p2, [| 6 |]) ] with
  | None -> Alcotest.fail "12 cores fit 14"
  | Some allocs ->
      let servers =
        List.map (fun a -> snd (List.hd a.Alloc.seg_server)) allocs
      in
      Alcotest.(check int) "distinct servers" 2
        (List.length (Lemur_util.Listx.uniq String.equal servers))

let test_segments_share_server () =
  let c = config ~num_servers:2 ~cores_per_socket:4 () in
  (* consecutive server NFs form one segment and must be co-located *)
  let plan = server_plan c (input "Encrypt -> Decrypt -> UrlFilter") in
  match Alloc.allocate c Alloc.Slo_driven [ plan ] with
  | None -> Alcotest.fail "fits"
  | Some [ a ] ->
      Alcotest.(check int) "one segment" 1 (List.length a.Alloc.seg_server)
  | Some _ -> Alcotest.fail "one alloc"

let test_evaluate_respects_link () =
  let c = config () in
  (* A cheap NF bouncing twice: chain capacity far exceeds the link, so
     the LP must cap the rate at link/2 = 20G. *)
  let i = input ~t_min:1e9 "Tunnel -> ACL -> Detunnel" in
  let locs = [| Plan.Server; Plan.Switch; Plan.Server |] in
  let plan = Plan.elaborate c i locs in
  match Alloc.allocate c Alloc.Slo_driven [ plan ] with
  | None -> Alcotest.fail "fits"
  | Some allocs -> (
      match Alloc.evaluate c allocs with
      | None -> Alcotest.fail "LP feasible"
      | Some lp ->
          Alcotest.(check bool)
            (Printf.sprintf "rate %.1fG capped by link" (lp.Ratelp.total_rate /. 1e9))
            true
            (lp.Ratelp.total_rate <= 20.1e9))

let test_freest_tie_break () =
  (* Among servers with equal free cores a segment lands on the one the
     ledger's hash-table fold meets first. On two servers that is
     server0; on four the fold meets server3 before server2, so the
     third of four one-core chains lands on server3, not on the lower
     index. *)
  let servers n plans =
    match Alloc.allocate (config ~num_servers:n ()) Alloc.No_extra plans with
    | Some allocs -> List.map (fun a -> snd (List.hd a.Alloc.seg_server)) allocs
    | None -> Alcotest.fail "fits"
  in
  let c = config ~num_servers:2 () in
  Alcotest.(check (list string)) "two servers" [ "server0" ]
    (servers 2 [ server_plan c (input "Encrypt -> Decrypt") ]);
  let c = config ~num_servers:4 () in
  Alcotest.(check (list string)) "four servers"
    [ "server0"; "server1"; "server3"; "server2" ]
    (servers 4
       (List.init 4 (fun k ->
            server_plan c (input ~id:(Printf.sprintf "c%d" k) "Encrypt"))))

(* Chain inputs from three consecutive scenarios on the first one's
   rack (or on a testbed of [servers] servers), ids kept apart, so that
   spare cores are contended by up to nine chains. *)
let scenario_problem ~servers seed =
  let module S = Lemur_check.Scenario in
  let rack sc =
    let first = S.generate ~seed () in
    if servers > 0 then { sc with S.sc_servers = servers; sc_no_pisa = false }
    else { sc with S.sc_servers = first.S.sc_servers; sc_no_pisa = first.S.sc_no_pisa }
  in
  let inputs =
    List.concat_map
      (fun k ->
        List.map
          (fun (i : Plan.chain_input) ->
            { i with Plan.id = Printf.sprintf "s%d%s" k i.Plan.id })
          (S.inputs (rack (S.generate ~seed:(seed + k) ()))))
      [ 0; 1; 2 ]
  in
  (S.config (rack (S.generate ~seed ())), inputs)

let render_allocs = function
  | None -> "none"
  | Some allocs ->
      String.concat ";"
        (List.map
           (fun a ->
             Printf.sprintf "%s[%s]{%s}" a.Alloc.plan.Plan.input.Plan.id
               (String.concat ","
                  (List.map string_of_int (Array.to_list a.Alloc.sg_cores)))
               (String.concat ","
                  (List.map
                     (fun (seg, s) -> Printf.sprintf "%d:%s" seg s)
                     a.Alloc.seg_server)))
           allocs)

let qcheck_cases =
  let open QCheck in
  [
    (* The incremental allocator hands out exactly the reference's cores
       and servers, under every spare policy, on the testbed racks the
       scenarios draw and on racks of 8 to 12 servers. *)
    Test.make ~name:"allocator matches the full re-scoring reference" ~count:200
      (pair (int_range 1 100_000) (oneofl [ 0; 8; 12 ]))
      (fun (seed, servers) ->
        let c, inputs = scenario_problem ~servers seed in
        let plan_sets =
          match Strategy.lemur_variants c inputs with
          | Some variants -> variants
          | None -> []
          | exception Plan.Invalid_pattern _ -> []
        in
        List.for_all
          (fun plans ->
            List.for_all
              (fun policy ->
                let expected = render_allocs (Step3_ref.allocate c policy plans) in
                let got = render_allocs (Alloc.allocate c policy plans) in
                String.equal expected got
                || Test.fail_reportf "seed %d, %d servers: %s <> %s" seed servers
                     got expected)
              [ Alloc.Slo_driven; Alloc.Even; Alloc.By_index; Alloc.No_extra ])
          plan_sets);
  ]

let suite =
  [
    Alcotest.test_case "minimum allocation" `Quick test_min_allocation;
    Alcotest.test_case "core budget respected" `Quick test_allocation_respects_budget;
    Alcotest.test_case "SLO-driven meets tmin" `Quick test_slo_driven_meets_tmin_first;
    Alcotest.test_case "non-replicable never grows" `Quick test_non_replicable_never_grows;
    Alcotest.test_case "link loads" `Quick test_link_loads;
    Alcotest.test_case "assign_only multi-server" `Quick test_assign_only_multi_server;
    Alcotest.test_case "segments share a server" `Quick test_segments_share_server;
    Alcotest.test_case "LP respects link caps" `Quick test_evaluate_respects_link;
    Alcotest.test_case "freest tie-break" `Quick test_freest_tie_break;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases
