open Lemur_placer
open Lemur_spec

let topo () = Lemur_topology.Topology.testbed ()
let config () = Plan.default_config (topo ())

let input ?(slo = Lemur_slo.Slo.best_effort) ?(id = "c") text =
  { Plan.id; graph = Loader.chain_of_string ~name:id text; slo }

let all_server _config i = Array.make (Graph.size i.Plan.graph) Plan.Server

let test_allowed_locations () =
  let c = config () in
  let enc = Lemur_nf.Instance.make Lemur_nf.Kind.Encrypt in
  Alcotest.(check bool) "encrypt server only" true
    (Plan.allowed_locations c enc = [ Plan.Server ]);
  let fwd = Lemur_nf.Instance.make Lemur_nf.Kind.Ipv4_fwd in
  Alcotest.(check bool) "fwd P4-only in eval" true
    (Plan.allowed_locations c fwd = [ Plan.Switch ]);
  (* no smartnic in the default rack *)
  let chacha = Lemur_nf.Instance.make Lemur_nf.Kind.Fast_encrypt in
  Alcotest.(check bool) "no smartnic -> server" true
    (Plan.allowed_locations c chacha = [ Plan.Server ]);
  let c_nic =
    Plan.default_config (Lemur_topology.Topology.testbed ~smartnic:true ())
  in
  Alcotest.(check bool) "smartnic available" true
    (List.mem Plan.Smartnic (Plan.allowed_locations c_nic chacha))

let test_invalid_pattern_rejected () =
  let c = config () in
  let i = input "Encrypt -> IPv4Fwd" in
  let locs = [| Plan.Switch; Plan.Switch |] in
  match Plan.elaborate c i locs with
  | _ -> Alcotest.fail "Encrypt cannot run on the switch"
  | exception Plan.Invalid_pattern _ -> ()

let test_subgroup_formation () =
  let c = config () in
  let i = input "Encrypt -> Decrypt -> UrlFilter" in
  let plan = Plan.elaborate c i (all_server c i) in
  Alcotest.(check int) "one run-to-completion subgroup" 1
    (List.length plan.Plan.subgroups);
  Alcotest.(check int) "one segment" 1 plan.Plan.segments;
  let sg = List.hd plan.Plan.subgroups in
  Alcotest.(check int) "3 NFs" 3 (List.length sg.Plan.sg_nodes);
  Alcotest.(check bool) "replicable" true sg.Plan.sg_replicable

let test_subgroup_split_by_switch_nf () =
  let c = config () in
  let i = input "Encrypt -> ACL -> Decrypt" in
  let locs = [| Plan.Server; Plan.Switch; Plan.Server |] in
  let plan = Plan.elaborate c i locs in
  Alcotest.(check int) "two subgroups" 2 (List.length plan.Plan.subgroups);
  Alcotest.(check int) "two segments (bounce in between)" 2 plan.Plan.segments;
  Alcotest.(check (float 1e-9)) "2 link visits" 2.0 plan.Plan.link_visits

let test_branch_subgroups_not_replicable () =
  let c = config () in
  (* LB branches to two NATs: the subgroup holding LB must not replicate. *)
  let i = input "Encrypt -> LB -> [{'a': 1, NAT}, {'a': 2, NAT}] -> UrlFilter" in
  let plan = Plan.elaborate c i (all_server c i) in
  let lb_sg =
    List.find
      (fun sg ->
        List.exists
          (fun id ->
            (Graph.node i.Plan.graph id).Graph.instance.Lemur_nf.Instance.kind
            = Lemur_nf.Kind.Lb)
          sg.Plan.sg_nodes)
      plan.Plan.subgroups
  in
  Alcotest.(check bool) "branch subgroup not replicable" false lb_sg.Plan.sg_replicable;
  (* the merge NF (UrlFilter) also must not replicate *)
  let uf_sg =
    List.find
      (fun sg ->
        List.exists
          (fun id ->
            (Graph.node i.Plan.graph id).Graph.instance.Lemur_nf.Instance.kind
            = Lemur_nf.Kind.Url_filter)
          sg.Plan.sg_nodes)
      plan.Plan.subgroups
  in
  Alcotest.(check bool) "merge subgroup not replicable" false uf_sg.Plan.sg_replicable

let test_limiter_not_replicable () =
  let c = config () in
  let i = input "Limiter" in
  let plan = Plan.elaborate c i [| Plan.Server |] in
  Alcotest.(check bool) "limiter sg not replicable" false
    (List.hd plan.Plan.subgroups).Plan.sg_replicable

let test_capacity_model () =
  let c = config () in
  let i = input "Encrypt" in
  let plan = Plan.elaborate c i [| Plan.Server |] in
  let cap1 = Plan.capacity c plan ~cores:[ 1 ] in
  let cap2 = Plan.capacity c plan ~cores:[ 2 ] in
  (* Encrypt ~9100 worst-case cycles + 220 NSH at 1.7 GHz, 1500 B *)
  Alcotest.(check bool) "1 core ~2.2 Gbps" true (cap1 > 2.0e9 && cap1 < 2.4e9);
  Alcotest.(check bool) "2 cores nearly double" true
    (cap2 > 1.9 *. cap1 && cap2 < 2.0 *. cap1)

let test_capacity_infinite_for_hardware () =
  let c = config () in
  let i = input "ACL -> IPv4Fwd" in
  let plan = Plan.elaborate c i [| Plan.Switch; Plan.Switch |] in
  Alcotest.(check bool) "all-switch chain is line-rate" true
    (Plan.capacity c plan ~cores:[] = infinity)

let test_fraction_weighting () =
  let c = config () in
  (* UrlFilter only sees 25% of traffic: chain capacity = 4x its rate. *)
  let i = input "ACL -> [{'x': 1, 'weight': 0.25, UrlFilter}, {'weight': 0.75}] -> IPv4Fwd" in
  let locs = Array.make 3 Plan.Server in
  (* node ids: ACL=0, UrlFilter=1, IPv4Fwd=2 *)
  locs.(0) <- Plan.Switch;
  locs.(2) <- Plan.Switch;
  let plan = Plan.elaborate c i locs in
  let full = input "UrlFilter" in
  let full_plan = Plan.elaborate c full [| Plan.Server |] in
  let cap_frac = Plan.capacity c plan ~cores:[ 1 ] in
  let cap_full = Plan.capacity c full_plan ~cores:[ 1 ] in
  Alcotest.(check (float 1e7)) "4x when 25% of traffic" (4.0 *. cap_full) cap_frac

let test_latency_model () =
  let c = config () in
  let i = input "Encrypt -> ACL -> Decrypt" in
  let locs = [| Plan.Server; Plan.Switch; Plan.Server |] in
  let plan = Plan.elaborate c i locs in
  let lat = Plan.latency plan in
  (* two Encrypt/Decrypt hops ~5.5us each + 2 bounces + ToR traversals *)
  Alcotest.(check bool) "latency in the tens of us" true
    (lat > 10_000.0 && lat < 40_000.0);
  let tight = { i with Plan.slo = Lemur_slo.Slo.make ~d_max:(Lemur_util.Units.us 5.0) () } in
  let plan_tight = Plan.elaborate c tight locs in
  Alcotest.(check bool) "violates 5us" false (Plan.meets_latency plan_tight)

let test_switch_projection () =
  let c = config () in
  let i = input "ACL -> Encrypt -> NAT -> IPv4Fwd" in
  let locs = [| Plan.Switch; Plan.Server; Plan.Switch; Plan.Switch |] in
  let plan = Plan.elaborate c i locs in
  let proj = Plan.switch_projection plan in
  Alcotest.(check int) "3 switch NFs" 3 (List.length proj.Lemur_p4.Pipeline.nf_nodes);
  Alcotest.(check bool) "crosses platforms" true proj.Lemur_p4.Pipeline.crosses_platform;
  (* projected edge ACL -> NAT skips the server NF *)
  Alcotest.(check bool) "projected edge" true
    (List.mem ("c_ACL", "c_NAT") proj.Lemur_p4.Pipeline.nf_edges);
  Alcotest.(check (list string)) "entry" [ "c_ACL" ] proj.Lemur_p4.Pipeline.entry_nfs

(* The §5.2 extreme configuration, recalibrated to our simulated
   compiler: its branch packing is more aggressive than the Tofino
   toolchain's, so the stage wall sits at 17 branched NATs instead of
   the paper's 11 (see EXPERIMENTS.md). The mechanism is identical:
   all-on-switch placements overflow; Lemur evicts NATs to the server
   until the unified pipeline compiles. *)
let extreme_nat_count = 17

let extreme_chain_input c n =
  ignore c;
  let arms =
    String.concat ", "
      (List.init n (fun k -> Printf.sprintf "{'b': %d, NAT}" (k + 1)))
  in
  input ~id:"extreme" (Printf.sprintf "BPF -> [%s] -> IPv4Fwd" arms)

let test_stagecheck_extreme () =
  let c = config () in
  let all_switch i = Array.make (Graph.size i.Plan.graph) Plan.Switch in
  let big = extreme_chain_input c extreme_nat_count in
  let p_big = Plan.elaborate c big (all_switch big) in
  (match Stagecheck.check c [ p_big ] with
  | Stagecheck.Overflow n ->
      Alcotest.(check bool) "needs more than 12" true (n > 12)
  | Stagecheck.Fits n ->
      Alcotest.failf "%d NATs should overflow (got %d stages)" extreme_nat_count n
  | Stagecheck.Conflict m -> Alcotest.failf "unexpected conflict: %s" m);
  (* 12 on the switch plus NSH steering still compiles to 12 stages. *)
  let small = extreme_chain_input c 12 in
  let locs = all_switch small in
  let p_small = Plan.elaborate c small locs in
  match Stagecheck.check c [ p_small ] with
  | Stagecheck.Fits n -> Alcotest.(check bool) "within 12" true (n <= 12)
  | _ -> Alcotest.fail "12 NATs should fit"

let test_lemur_evicts_to_fit () =
  (* Lemur resolves the extreme config by moving NATs to the server;
     HW Preferred does not recover and stays infeasible. *)
  let c = config () in
  let base = Lemur.Chains.base_rate c (extreme_chain_input c extreme_nat_count).Plan.graph in
  let slo = Lemur_slo.Slo.make ~t_min:(0.5 *. base) ~t_max:(Lemur_util.Units.gbps 100.0) () in
  let i = { (extreme_chain_input c extreme_nat_count) with Plan.slo } in
  (match Strategy.place Strategy.Lemur c [ i ] with
  | Strategy.Placed p ->
      Alcotest.(check bool) "fits" true (p.Strategy.stages_used <= 12);
      let r = List.hd p.Strategy.chain_reports in
      let on_switch =
        Array.fold_left
          (fun acc loc -> if loc = Plan.Switch then acc + 1 else acc)
          0 r.Strategy.plan.Plan.locs
      in
      let on_server = Graph.size i.Plan.graph - on_switch in
      Alcotest.(check bool) "some NATs moved to the server" true (on_server >= 1);
      Alcotest.(check bool) "most NATs stay on the switch" true (on_switch >= 10)
  | Strategy.Infeasible { reason } -> Alcotest.failf "lemur failed: %s" reason);
  match Strategy.place Strategy.Hw_preferred c [ i ] with
  | Strategy.Placed _ -> Alcotest.fail "HW preferred should overflow stages"
  | Strategy.Infeasible _ -> ()

let test_ratelp_shares_link () =
  (* Two chains sharing one 40G link, each bouncing twice: rates are
     jointly capped at 2*rA + 2*rB <= 40. *)
  let entries =
    [
      { Ratelp.entry_id = "a"; t_min = 1e9; t_max = 100e9; weight = 1.0; capacity = 30e9; link_loads = [ ("server0", 2.0) ] };
      { Ratelp.entry_id = "b"; t_min = 1e9; t_max = 100e9; weight = 1.0; capacity = 30e9; link_loads = [ ("server0", 2.0) ] };
    ]
  in
  match Ratelp.solve ~link_caps:[ ("server0", 40e9) ] entries with
  | None -> Alcotest.fail "feasible"
  | Some r ->
      Alcotest.(check (float 1e6)) "total 20G" 20e9 r.Ratelp.total_rate;
      Alcotest.(check (float 1e6)) "marginal 18G" 18e9 r.Ratelp.total_marginal

let test_ratelp_weights () =
  (* Two identical chains share a link; the weighted one takes the
     contested capacity (footnote 2's differentiated marginal revenue). *)
  let entry id weight =
    {
      Ratelp.entry_id = id; t_min = 1e9; t_max = 100e9; weight;
      capacity = 30e9; link_loads = [ ("server0", 2.0) ];
    }
  in
  (match
     Ratelp.solve ~link_caps:[ ("server0", 40e9) ]
       [ entry "gold" 3.0; entry "bulk" 1.0 ]
   with
  | None -> Alcotest.fail "feasible"
  | Some r ->
      let rate id = List.assoc id r.Ratelp.rates in
      Alcotest.(check bool)
        (Printf.sprintf "gold (%.1fG) gets the slack, bulk (%.1fG) the floor"
           (rate "gold" /. 1e9) (rate "bulk" /. 1e9))
        true
        (rate "gold" > 15e9 && rate "bulk" < 2e9))

let test_ratelp_infeasible_tmin () =
  let entries =
    [ { Ratelp.entry_id = "a"; t_min = 5e9; t_max = 10e9; weight = 1.0; capacity = 2e9; link_loads = [] } ]
  in
  Alcotest.(check bool) "capacity below tmin" true
    (Ratelp.solve ~link_caps:[] entries = None)

let canonical_inputs delta set =
  let c = config () in
  Lemur.Chains.inputs_for_delta c ~delta set

let test_lemur_feasible_and_wins () =
  let c = config () in
  let inputs = canonical_inputs 0.5 [ 1; 2; 3; 4 ] in
  match Strategy.place Strategy.Lemur c inputs with
  | Strategy.Infeasible { reason } -> Alcotest.failf "lemur infeasible: %s" reason
  | Strategy.Placed p ->
      Alcotest.(check bool) "positive marginal" true (p.Strategy.total_marginal > 0.0);
      Alcotest.(check bool) "fits stages" true (p.Strategy.stages_used <= 12);
      Alcotest.(check bool) "within cores" true (p.Strategy.cores_used <= 15);
      (* every chain at or above t_min *)
      List.iter
        (fun r ->
          Alcotest.(check bool) "meets tmin" true
            (r.Strategy.rate >= r.Strategy.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_min -. 1e3))
        p.Strategy.chain_reports;
      (* and beats every baseline *)
      List.iter
        (fun s ->
          match Strategy.place s c inputs with
          | Strategy.Infeasible _ -> ()
          | Strategy.Placed q ->
              Alcotest.(check bool)
                (Printf.sprintf "Lemur >= %s" (Strategy.name s))
                true
                (p.Strategy.total_marginal >= q.Strategy.total_marginal -. 1e6))
        [ Strategy.Hw_preferred; Strategy.Sw_preferred; Strategy.Min_bounce; Strategy.Greedy ]

let test_elapsed_covers_place () =
  (* [elapsed] is stamped once, when [place] returns, so it covers every
     variant and spare-core policy evaluated — not just the work up to
     the winning candidate. Best of three tries, to ride out a
     preemption outside the timed section. *)
  let c = config () in
  List.iter
    (fun delta ->
      let inputs = canonical_inputs delta [ 1; 2; 3 ] in
      let ratio () =
        Strategy.clear_variant_cache ();
        let t0 = Lemur_util.Timing.now () in
        let o = Strategy.place Strategy.Lemur c inputs in
        let wall = Lemur_util.Timing.elapsed t0 in
        match o with
        | Strategy.Placed p -> p.Strategy.elapsed /. wall
        | Strategy.Infeasible { reason } -> Alcotest.failf "infeasible: %s" reason
      in
      let best = List.fold_left Float.max 0.0 (List.init 3 (fun _ -> ratio ())) in
      Alcotest.(check bool)
        (Printf.sprintf "delta %.1f: elapsed/wall %.2f >= 0.9" delta best)
        true (best >= 0.9))
    [ 0.5; 1.0 ]

let test_feasibility_monotone_in_delta () =
  let c = config () in
  let feasible delta =
    Strategy.is_feasible
      (Strategy.place Strategy.Lemur c (canonical_inputs delta [ 1; 2; 3 ]))
  in
  let flags = List.map feasible [ 0.5; 1.0; 1.5; 2.0; 2.5; 3.0 ] in
  (* once infeasible, stays infeasible *)
  let rec check_monotone = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "monotone" true ((not b) || a);
        check_monotone rest
    | _ -> ()
  in
  check_monotone flags;
  Alcotest.(check bool) "feasible at 0.5" true (List.hd flags)

let test_lemur_tracks_optimal () =
  let c = config () in
  let inputs = canonical_inputs 1.0 [ 1; 2; 3 ] in
  match (Strategy.place Strategy.Lemur c inputs, Strategy.place Strategy.Optimal c inputs) with
  | Strategy.Placed l, Strategy.Placed o ->
      Alcotest.(check bool) "lemur within 1% of optimal" true
        (l.Strategy.total_marginal >= o.Strategy.total_marginal *. 0.99)
  | _ -> Alcotest.fail "both should be feasible"

let test_sw_preferred_fails_early () =
  let c = config () in
  (* SW preferred cannot scale the single non-replicable subgroup. *)
  let inputs = canonical_inputs 1.0 [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "SW preferred infeasible at delta 1" false
    (Strategy.is_feasible (Strategy.place Strategy.Sw_preferred c inputs))

let test_ablations_weaker () =
  let c = config () in
  let inputs = canonical_inputs 0.5 [ 1; 2; 3; 4 ] in
  match
    ( Strategy.place Strategy.Lemur c inputs,
      Strategy.place Strategy.No_core_alloc c inputs )
  with
  | Strategy.Placed l, Strategy.Placed nca ->
      Alcotest.(check bool) "no-core-alloc strictly weaker" true
        (nca.Strategy.total_marginal < l.Strategy.total_marginal)
  | _ -> Alcotest.fail "both feasible at delta 0.5"

let test_multi_server () =
  (* Fig 3a: two 8-core servers roughly double the single-server rate at
     low delta. *)
  let one = Plan.default_config (Lemur_topology.Topology.testbed ~num_servers:1 ~cores_per_socket:4 ()) in
  let two = Plan.default_config (Lemur_topology.Topology.testbed ~num_servers:2 ~cores_per_socket:4 ()) in
  let inputs c = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 1; 2; 3 ] in
  match
    ( Strategy.place Strategy.Lemur one (inputs one),
      Strategy.place Strategy.Lemur two (inputs two) )
  with
  | Strategy.Placed p1, Strategy.Placed p2 ->
      Alcotest.(check bool) "two servers beat one" true
        (p2.Strategy.total_rate > p1.Strategy.total_rate *. 1.3)
  | Strategy.Infeasible { reason }, _ | _, Strategy.Infeasible { reason } ->
      Alcotest.failf "unexpected infeasible: %s" reason

let test_strategy_patterns () =
  let c = config () in
  (* HW Preferred puts everything P4-capable on the switch. *)
  let i = input ~slo:(Lemur_slo.Slo.make ~t_min:1e8 ~t_max:100e9 ()) "ACL -> Encrypt -> NAT -> IPv4Fwd" in
  (match Strategy.place Strategy.Hw_preferred c [ i ] with
  | Strategy.Infeasible { reason } -> Alcotest.failf "hw preferred failed: %s" reason
  | Strategy.Placed p ->
      let locs = (List.hd p.Strategy.chain_reports).Strategy.plan.Plan.locs in
      Alcotest.(check bool) "ACL on switch" true (locs.(0) = Plan.Switch);
      Alcotest.(check bool) "Encrypt on server (no choice)" true (locs.(1) = Plan.Server);
      Alcotest.(check bool) "NAT on switch" true (locs.(2) = Plan.Switch));
  (* SW Preferred pulls everything with a software implementation down. *)
  match Strategy.place Strategy.Sw_preferred c [ i ] with
  | Strategy.Infeasible { reason } -> Alcotest.failf "sw preferred failed: %s" reason
  | Strategy.Placed p ->
      let locs = (List.hd p.Strategy.chain_reports).Strategy.plan.Plan.locs in
      Alcotest.(check bool) "ACL on server" true (locs.(0) = Plan.Server);
      Alcotest.(check bool) "NAT on server" true (locs.(2) = Plan.Server);
      Alcotest.(check bool) "IPv4Fwd stays on switch (P4-only)" true
        (locs.(3) = Plan.Switch)

let test_min_bounce_picks_fewest_bounces () =
  let c = config () in
  (* Encrypt - NAT - Decrypt: pulling NAT to the server gives one bounce
     instead of two; Min Bounce must take it. *)
  let i = input ~slo:(Lemur_slo.Slo.make ~t_min:1e8 ~t_max:100e9 ()) "Encrypt -> NAT -> Decrypt" in
  match Strategy.place Strategy.Min_bounce c [ i ] with
  | Strategy.Infeasible { reason } -> Alcotest.failf "min bounce failed: %s" reason
  | Strategy.Placed p ->
      let r = List.hd p.Strategy.chain_reports in
      Alcotest.(check int) "single bounce" 1 r.Strategy.bounces;
      Alcotest.(check bool) "NAT pulled to the server" true
        (r.Strategy.plan.Plan.locs.(1) = Plan.Server)

let test_latency_constrains_placement () =
  let c = config () in
  let loose = Lemur_slo.Slo.make ~t_min:1e9 ~t_max:100e9 ~d_max:(Lemur_util.Units.us 100.0) () in
  let tight = Lemur_slo.Slo.make ~t_min:1e9 ~t_max:100e9 ~d_max:(Lemur_util.Units.us 1.0) () in
  let mk slo = [ { (Lemur.Chains.chain_input 3) with Plan.slo } ] in
  Alcotest.(check bool) "loose latency feasible" true
    (Strategy.is_feasible (Strategy.place Strategy.Lemur c (mk loose)));
  Alcotest.(check bool) "1us infeasible (Dedup alone takes ~18us)" false
    (Strategy.is_feasible (Strategy.place Strategy.Lemur c (mk tight)))

(* Canonical render of a placement outcome — hex floats and plan
   signatures, no wall-clock fields — so cache-equivalence checks can
   compare byte-for-byte. *)
let render_outcome = function
  | Strategy.Infeasible { reason } -> "infeasible:" ^ reason
  | Strategy.Placed p ->
      String.concat ";"
        (Printf.sprintf "%h|%h|%d|%d" p.Strategy.total_rate
           p.Strategy.total_marginal p.Strategy.stages_used
           p.Strategy.cores_used
        :: List.map
             (fun (r : Strategy.chain_report) ->
               Printf.sprintf "%s|%h|%h|%h|%d|%s"
                 (Memo.plan_sig r.Strategy.plan)
                 r.Strategy.rate r.Strategy.capacity r.Strategy.latency
                 r.Strategy.bounces
                 (String.concat ","
                    (List.map string_of_int (Array.to_list r.Strategy.cores))))
             p.Strategy.chain_reports)

let test_evaluate_plans_sweep () =
  (* Without a forced policy, evaluate_plans sweeps Slo_driven, By_index
     and Even over the same plans and returns the first best feasible
     outcome by marginal — what the runtime's move-budgeted hybrid
     relies on. *)
  let c = config () in
  let inputs = canonical_inputs 0.5 [ 1; 2; 3 ] in
  match Strategy.lemur_variants c inputs with
  | None -> Alcotest.fail "no variants"
  | Some variants ->
      List.iter
        (fun plans ->
          let forced =
            List.map
              (fun policy ->
                Strategy.evaluate_plans ~policy Strategy.Lemur c plans)
              [ Alloc.Slo_driven; Alloc.By_index; Alloc.Even ]
          in
          let expected =
            List.fold_left
              (fun best o ->
                match (best, o) with
                | Strategy.Placed b, Strategy.Placed p
                  when p.Strategy.total_marginal > b.Strategy.total_marginal ->
                    o
                | Strategy.Infeasible _, Strategy.Placed _ -> o
                | _ -> best)
              (List.hd forced) (List.tl forced)
          in
          Alcotest.(check string) "sweep keeps the first best policy"
            (render_outcome expected)
            (render_outcome (Strategy.evaluate_plans Strategy.Lemur c plans)))
        variants

(* The pre-table Min Bounce search, kept here as the reference: elaborate
   every enumerated pattern, drop the ones elaboration rejects, and take
   the first minimum of the same score. *)
let reference_min_bounce config input =
  let plans =
    List.filter_map
      (fun locs ->
        match Plan.elaborate config input locs with
        | plan -> Some plan
        | exception Plan.Invalid_pattern _ -> None)
      (Strategy.all_patterns config input ~limit:4096)
  in
  let hw_count plan =
    Array.fold_left
      (fun acc loc -> if loc <> Plan.Server then acc + 1 else acc)
      0 plan.Plan.locs
  in
  Lemur_util.Listx.min_by
    (fun plan ->
      (float_of_int plan.Plan.max_path_bounces *. 1000.0)
      -. float_of_int (hw_count plan))
    plans

let reference_min_bounce_outcome config inputs =
  match List.map (reference_min_bounce config) inputs with
  | plans when List.exists Option.is_none plans ->
      Strategy.Infeasible { reason = "a chain has no valid pattern" }
  | plans ->
      Strategy.evaluate_plans ~policy:Alloc.Slo_driven Strategy.Min_bounce
        config (List.filter_map Fun.id plans)
  | exception Plan.Invalid_pattern reason -> Strategy.Infeasible { reason }

let render_locs search =
  match search () with
  | None -> "none"
  | Some plan ->
      String.concat ","
        (Array.to_list
           (Array.map (Format.asprintf "%a" Plan.pp_location) plan.Plan.locs))
  | exception Plan.Invalid_pattern reason -> "invalid: " ^ reason

(* Table-order rejections the reference sees, and inputs whose pattern
   count exceeds the enumeration limit — the corpus must reach both. *)
let of_rejections config input =
  match Strategy.all_patterns config input ~limit:4096 with
  | patterns ->
      List.length
        (List.filter
           (fun locs ->
             match Plan.elaborate config input locs with
             | _ -> false
             | exception Plan.Invalid_pattern _ -> true)
           patterns)
  | exception Plan.Invalid_pattern _ -> 0

let over_limit config input =
  List.fold_left
    (fun acc node ->
      acc * List.length (Plan.allowed_locations config node.Graph.instance))
    1
    (Graph.nodes input.Plan.graph)
  > 4096

let check_min_bounce_agrees label config inputs =
  List.iter
    (fun input ->
      Alcotest.(check string)
        (Printf.sprintf "%s/%s: min-bounce locs" label input.Plan.id)
        (render_locs (fun () -> reference_min_bounce config input))
        (render_locs (fun () -> Strategy.min_bounce_pattern config input)))
    inputs;
  Alcotest.(check string)
    (label ^ ": Min Bounce outcome")
    (render_outcome (reference_min_bounce_outcome config inputs))
    (render_outcome (Strategy.place Strategy.Min_bounce config inputs))

let test_min_bounce_table2 () =
  let c = config () in
  List.iter
    (fun n ->
      check_min_bounce_agrees (Printf.sprintf "chain %d" n) c
        [ Lemur.Chains.chain_input n ])
    [ 1; 2; 3; 4; 5 ];
  check_min_bounce_agrees "chains 1-5" c
    (Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 1; 2; 3; 4; 5 ]);
  (* 2^13 switch-or-server patterns: the flips/ladder fallback *)
  let long =
    input ~id:"long"
      (String.concat " -> "
         (List.init 13 (fun i -> if i mod 2 = 0 then "ACL" else "NAT")))
  in
  Alcotest.(check bool) "long chain exceeds the enumeration limit" true
    (over_limit c long);
  check_min_bounce_agrees "long" c [ long ];
  (* the full rack: SmartNIC and OpenFlow switch choices too *)
  let rack =
    Plan.default_config
      (Lemur_topology.Topology.testbed ~smartnic:true ~ofswitch:true ())
  in
  List.iter
    (fun n ->
      check_min_bounce_agrees (Printf.sprintf "rack chain %d" n) rack
        [ Lemur.Chains.chain_input n ])
    [ 1; 2; 3; 4; 5 ];
  check_min_bounce_agrees "rack long" rack [ long ]

let test_min_bounce_scenarios () =
  let rejections = ref 0 and of_scenarios = ref 0 in
  for seed = 1 to 220 do
    let sc = Lemur_check.Scenario.generate ~seed () in
    let c = Lemur_check.Scenario.config sc in
    let inputs = Lemur_check.Scenario.inputs sc in
    if sc.Lemur_check.Scenario.sc_ofswitch then incr of_scenarios;
    List.iter (fun i -> rejections := !rejections + of_rejections c i) inputs;
    check_min_bounce_agrees (Printf.sprintf "seed %d" seed) c inputs
  done;
  Alcotest.(check bool) "OpenFlow scenarios drawn" true (!of_scenarios > 0);
  Alcotest.(check bool) "table-order rejections exercised" true
    (!rejections > 0)

let test_config_sig_structural () =
  (* Two configs built independently from equal topologies are distinct
     values but must share a signature — that is what lets the runtime
     rebuild its config every event without losing the cache. *)
  let c1 = config () and c2 = config () in
  Alcotest.(check bool) "distinct physical configs share a signature" true
    (c1 != c2 && String.equal (Memo.config_sig c1) (Memo.config_sig c2));
  let c3 = { c1 with Plan.pkt_bytes = c1.Plan.pkt_bytes + 64 } in
  Alcotest.(check bool) "pkt_bytes changes the signature" false
    (String.equal (Memo.config_sig c1) (Memo.config_sig c3));
  let c4 =
    Plan.default_config (Lemur_topology.Topology.testbed ~smartnic:true ())
  in
  Alcotest.(check bool) "topology changes the signature" false
    (String.equal (Memo.config_sig c1) (Memo.config_sig c4))

let test_variant_cache_demand_shift () =
  (* A demand-only change (t_max cap) must hit the variant cache — the
     key covers (config, graph, t_min) only — and still produce a
     placement byte-identical to a from-scratch solve, because
     everything t_max touches happens downstream of the cached pattern
     search. *)
  let c = config () in
  let mk t_max =
    let i = input ~id:"vc" "Encrypt -> ACL -> IPv4Fwd" in
    let slo = Lemur_slo.Slo.make ~t_min:1e9 ~t_max () in
    [ { i with Plan.slo } ]
  in
  Strategy.clear_variant_cache ();
  ignore (Strategy.place Strategy.Lemur c (mk 20e9));
  let hits0, _ = Strategy.variant_cache_stats () in
  let cached = render_outcome (Strategy.place Strategy.Lemur c (mk 10e9)) in
  let hits1, _ = Strategy.variant_cache_stats () in
  Alcotest.(check bool) "demand shift hits the variant cache" true
    (hits1 > hits0);
  Strategy.clear_variant_cache ();
  let scratch = render_outcome (Strategy.place Strategy.Lemur c (mk 10e9)) in
  Alcotest.(check string) "cached placement byte-identical to scratch" scratch
    cached

let test_variant_cache_rebinds_slo () =
  (* The variant-cache key ignores d_max, so tightening only the
     latency bound is a hit. The stored plans must then be judged under
     the caller's new SLO, not the one they were elaborated with: with
     d_max just below every variant's latency the re-placement is
     infeasible, exactly as a from-scratch solve says. *)
  let c = config () in
  let mk d_max =
    let i = input ~id:"vcd" "Encrypt -> ACL -> IPv4Fwd" in
    [ { i with Plan.slo = Lemur_slo.Slo.make ~t_min:1e9 ~d_max () } ]
  in
  Strategy.clear_variant_cache ();
  let unbounded = Strategy.place Strategy.Lemur c (mk infinity) in
  Alcotest.(check bool) "placed without a latency bound" true
    (Strategy.is_feasible unbounded);
  let min_latency =
    match Strategy.lemur_variants c (mk infinity) with
    | None -> Alcotest.fail "no variants"
    | Some variants ->
        List.fold_left
          (List.fold_left (fun acc p -> Float.min acc (Plan.latency p)))
          infinity variants
  in
  let tight = mk (min_latency -. 1.0) in
  let hits0, _ = Strategy.variant_cache_stats () in
  let cached = Strategy.place Strategy.Lemur c tight in
  let hits1, _ = Strategy.variant_cache_stats () in
  Alcotest.(check bool) "d_max change hits the variant cache" true
    (hits1 > hits0);
  (match cached with
  | Strategy.Infeasible { reason } ->
      Alcotest.(check bool) "latency SLO reason" true
        (String.starts_with ~prefix:"chain vcd exceeds its latency SLO"
           reason)
  | Strategy.Placed _ -> Alcotest.fail "placed despite d_max below latency");
  Strategy.clear_variant_cache ();
  let scratch = render_outcome (Strategy.place Strategy.Lemur c tight) in
  Alcotest.(check string) "cached outcome byte-identical to scratch" scratch
    (render_outcome cached)

(* Run [f] under a fresh telemetry registry; returns its result and a
   reader for the registry's counters. *)
let with_counters f =
  let tm = Lemur_telemetry.Telemetry.create () in
  let prev = Lemur_telemetry.Telemetry.current () in
  Lemur_telemetry.Telemetry.set_current tm;
  let r = Fun.protect ~finally:(fun () -> Lemur_telemetry.Telemetry.set_current prev) f in
  (r, fun name -> Lemur_telemetry.Counter.value (Lemur_telemetry.Telemetry.counter tm name))

let verdict_strategies =
  Strategy.[ Hw_preferred; Greedy; Sw_preferred; Min_bounce; Lemur; No_core_alloc ]

(* Every strategy placed in turn with the stage verdict table carried
   from one to the next (so Lemur's eviction walk and every finalize
   re-read verdicts the earlier strategies stored) must render exactly
   as each strategy placed from a dropped table. *)
let check_verdict_table_exact label c inputs =
  let cold =
    List.map
      (fun s ->
        Strategy.clear_variant_cache ();
        render_outcome (Strategy.place s c inputs))
      verdict_strategies
  in
  Strategy.clear_variant_cache ();
  let warm, counter =
    with_counters (fun () ->
        List.map (fun s -> render_outcome (Strategy.place s c inputs)) verdict_strategies)
  in
  List.iter2
    (fun s (warm, cold) ->
      Alcotest.(check string) (Printf.sprintf "%s %s" label (Strategy.name s)) cold warm)
    verdict_strategies (List.combine warm cold);
  counter "placer.stageverdict.hits"

let test_variant_cache_corpus () =
  (* Ten full-size scenarios, each re-placed as demand falls to 0.75 and
     0.5 of its t_max (t_min stays: the runtime's loop), under Lemur and
     Optimal. The variant cache must be invisible in the placements, and
     the demand shifts are its hits. *)
  let at_demand factor (inputs : Plan.chain_input list) =
    List.map
      (fun (i : Plan.chain_input) ->
        let slo = i.Plan.slo in
        let t_max = slo.Lemur_slo.Slo.t_max in
        if factor < 1.0 && Float.is_finite t_max then
          let t_max = Float.max slo.Lemur_slo.Slo.t_min (t_max *. factor) in
          { i with Plan.slo = { slo with Lemur_slo.Slo.t_max } }
        else i)
      inputs
  in
  let pass ~fresh =
    List.concat_map
      (fun seed ->
        let sc = Lemur_check.Scenario.generate ~quick:false ~seed () in
        let c = Lemur_check.Scenario.config sc in
        List.concat_map
          (fun factor ->
            let inputs = at_demand factor (Lemur_check.Scenario.inputs sc) in
            List.map
              (fun strategy ->
                if fresh then Strategy.clear_variant_cache ();
                render_outcome (Strategy.place strategy c inputs))
              [ Strategy.Lemur; Strategy.Optimal ])
          [ 1.0; 0.75; 0.5 ])
      (List.init 10 succ)
  in
  Strategy.clear_variant_cache ();
  let hits0, misses0 = Strategy.variant_cache_stats () in
  let cached = pass ~fresh:false in
  let hits1, misses1 = Strategy.variant_cache_stats () in
  Alcotest.(check (pair int int)) "variant cache hits, misses" (18, 12)
    (hits1 - hits0, misses1 - misses0);
  Alcotest.(check (list string)) "cached placements match uncached"
    (pass ~fresh:true) cached

let test_verdict_table_exact () =
  let c = config () in
  let hits = ref 0 in
  List.iter
    (fun set ->
      List.iter
        (fun delta ->
          hits :=
            !hits
            + check_verdict_table_exact
                (Printf.sprintf "fig2 {%s} delta %g"
                   (String.concat "," (List.map string_of_int set)) delta)
                c (canonical_inputs delta set))
        [ 0.5; 1.0; 1.5; 2.0; 2.5; 3.0; 3.5; 4.0 ])
    [ [ 1; 2; 3; 4 ]; [ 1; 2; 3 ]; [ 1; 2; 4 ]; [ 1; 3; 4 ]; [ 2; 3; 4 ] ];
  for seed = 1 to 40 do
    let sc = Lemur_check.Scenario.generate ~seed () in
    hits :=
      !hits
      + check_verdict_table_exact (Printf.sprintf "scenario seed %d" seed)
          (Lemur_check.Scenario.config sc) (Lemur_check.Scenario.inputs sc)
  done;
  Alcotest.(check bool) "warm runs read stored verdicts" true (!hits > 0)

let test_oracle_compiles_afresh () =
  (* The verdict table serves the placer only: with it warm for exactly
     this placement, the oracle still runs the compiler itself. *)
  let c = config () in
  let inputs = canonical_inputs 1.0 [ 1; 2; 3 ] in
  Strategy.clear_variant_cache ();
  let placement =
    match Strategy.place Strategy.Lemur c inputs with
    | Strategy.Placed p -> p
    | Strategy.Infeasible { reason } -> Alcotest.failf "infeasible: %s" reason
  in
  let (), counter =
    with_counters (fun () ->
        ignore (Strategy.place Strategy.Lemur c inputs);
        Alcotest.(check bool) "oracle accepts" true
          (Lemur_check.Oracle.check c placement = Ok ()))
  in
  Alcotest.(check bool) "placer re-read stored verdicts" true
    (counter "placer.stageverdict.hits" > 0);
  Alcotest.(check int) "placer compiled nothing new" 0
    (counter "placer.stageverdict.misses");
  Alcotest.(check int) "the oracle's compile is the only one" 1
    (counter "placer.stagecheck.checks")

(* [render_outcome] plus what it leaves out that Step 3 decides: the
   strategy and every chain's segment-to-server map. *)
let render_step3 o =
  render_outcome o
  ^
  match o with
  | Strategy.Infeasible _ -> ""
  | Strategy.Placed p ->
      "|" ^ Strategy.name p.Strategy.strategy
      ^ String.concat ";"
          (List.map
             (fun (r : Strategy.chain_report) ->
               String.concat ","
                 (List.map
                    (fun (seg, s) -> Printf.sprintf "%d:%s" seg s)
                    r.Strategy.seg_server))
             p.Strategy.chain_reports)

let test_all_infeasible_reason () =
  (* Every variant fails: the baseline on chain1's latency bound, the
     rest in the rate LP. The first outcome's reason, the baseline's,
     surfaces. *)
  let c = config () in
  let inputs =
    List.map
      (fun (i : Plan.chain_input) ->
        if i.Plan.id <> "chain1" then i
        else
          { i with Plan.slo = { i.Plan.slo with Lemur_slo.Slo.d_max = 24_000.0 } })
      (canonical_inputs 2.0 [ 1; 2; 3; 4 ])
  in
  let variants = Option.get (Strategy.lemur_variants c inputs) in
  Alcotest.(check bool) "several variants" true (List.length variants > 1);
  Alcotest.(check string) "a later variant fails in the LP"
    "infeasible:rate LP infeasible (SLOs unsatisfiable)"
    (render_outcome
       (Strategy.evaluate_plans Strategy.Lemur c (List.nth variants 1)));
  let reason = "infeasible:chain chain1 exceeds its latency SLO (26.0 us > 24.0 us)" in
  Alcotest.(check string) "surfaced reason" reason
    (render_outcome (Strategy.place Strategy.Lemur c inputs));
  Alcotest.(check string) "reference sweep agrees" reason
    (render_outcome (Step3_ref.place Strategy.Lemur c inputs))

let test_variants_without_repeats () =
  (* Every variant list over 120 scenarios and 12 canonical chain sets,
     as ordered per-chain plan signatures. The digest was recorded on
     the variant lists from before duplicates were dropped, with each
     repeat after its first occurrence removed: dropping is exactly
     that, no distinct variant goes and the order is kept. *)
  let problems =
    List.init 120 (fun k ->
        let sc = Lemur_check.Scenario.generate ~seed:(k + 1) () in
        (Lemur_check.Scenario.config sc, Lemur_check.Scenario.inputs sc))
    @ List.concat_map
        (fun d ->
          List.map
            (fun set -> (config (), canonical_inputs d set))
            [ [ 1; 2; 3 ]; [ 1; 2; 3; 4 ]; [ 2; 3 ]; [ 1; 4 ] ])
        [ 0.1; 0.5; 1.0 ]
  in
  let render (c, inputs) =
    match Strategy.lemur_variants c inputs with
    | None -> "none"
    | exception Plan.Invalid_pattern m -> "invalid " ^ m
    | Some variants ->
        String.concat " "
          (List.map
             (fun plans -> String.concat "," (List.map Memo.plan_sig plans))
             variants)
  in
  Alcotest.(check string) "variant digest" "decdeaf9298ba2d0d1160c43291c295f"
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map render problems))))

let test_later_policy_wins () =
  (* Scenarios where By_index or Even beats Slo_driven on some variant
     (found by sweeping seeds 1-2000 with the reference): the policies
     after the first must still be evaluated whenever their allocation
     differs. *)
  List.iter
    (fun seed ->
      let sc = Lemur_check.Scenario.generate ~seed () in
      let c = Lemur_check.Scenario.config sc in
      let inputs = Lemur_check.Scenario.inputs sc in
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        (render_step3 (Step3_ref.place Strategy.Lemur c inputs))
        (render_step3 (Strategy.place Strategy.Lemur c inputs));
      List.iter
        (fun plans ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d sweep" seed)
            (render_step3 (Step3_ref.best_allocation Strategy.Lemur c [ plans ]))
            (render_step3 (Strategy.evaluate_plans Strategy.Lemur c plans)))
        (Option.get (Strategy.lemur_variants c inputs)))
    [ 188; 256; 636; 782; 929; 1385; 1894 ]

let qcheck_cases =
  let open QCheck in
  let kinds_with_server =
    List.filter
      (fun k -> List.mem Lemur_nf.Target.Cpp (Lemur_nf.Kind.targets_eval k))
      Lemur_nf.Kind.all
  in
  (* Random branched pipelines: NAME -> [ {..,NAME},{..,NAME} ] -> NAME
     shapes with random kinds and arm counts. *)
  let gen_branched =
    let name = Gen.oneofl (List.map Lemur_nf.Kind.name kinds_with_server) in
    Gen.(
      let* pre = name in
      let* arms = int_range 2 3 in
      let* arm_bodies = list_size (return arms) (list_size (int_range 1 2) name) in
      let* post = name in
      let arm_strs =
        List.mapi
          (fun i body ->
            Printf.sprintf "{'tc': %d, %s}" (i + 1) (String.concat " -> " body))
          arm_bodies
      in
      return
        (Printf.sprintf "%s -> [%s] -> %s" pre (String.concat ", " arm_strs) post))
  in
  [
    (* Step 3 evaluates each distinct candidate once and still returns
       what the full sweep returned: for every strategy that reaches it
       (Optimal never does), and for each variant under each forced
       policy and under the unforced sweep. Variants are distinct. *)
    Test.make ~name:"step 3 matches the full sweep" ~count:40
      (int_range 1 100_000)
      (fun seed ->
        let sc = Lemur_check.Scenario.generate ~seed () in
        let c = Lemur_check.Scenario.config sc in
        let inputs = Lemur_check.Scenario.inputs sc in
        let agree what expected got =
          String.equal (render_step3 expected) (render_step3 got)
          || Test.fail_reportf "seed %d, %s: %s <> %s" seed what
               (render_step3 got) (render_step3 expected)
        in
        let variants =
          match Strategy.lemur_variants c inputs with
          | Some variants -> variants
          | None | (exception Plan.Invalid_pattern _) -> []
        in
        let locs plans = List.map (fun p -> p.Plan.locs) plans in
        List.length (Lemur_util.Listx.uniq ( = ) (List.map locs variants))
        = List.length variants
        && List.for_all
             (fun s ->
               s = Strategy.Optimal
               || agree (Strategy.name s) (Step3_ref.place s c inputs)
                    (Strategy.place s c inputs))
             Strategy.all
        && List.for_all
             (fun plans ->
               agree "sweep"
                 (Step3_ref.best_allocation Strategy.Lemur c [ plans ])
                 (Strategy.evaluate_plans Strategy.Lemur c plans)
               && List.for_all
                    (fun policy ->
                      agree "forced"
                        (Step3_ref.best_allocation ~policy Strategy.Lemur c [ plans ])
                        (Strategy.evaluate_plans ~policy Strategy.Lemur c plans))
                    [ Alloc.Slo_driven; Alloc.By_index; Alloc.Even; Alloc.No_extra ])
             variants);
    (* Elaborated plans over branched chains keep their structural
       invariants: path fractions sum to 1, every server NF belongs to
       exactly one subgroup, and subgroup fractions match their nodes. *)
    Test.make ~name:"branched plan invariants" ~count:40
      (make ~print:Fun.id gen_branched)
      (fun text ->
        let c = config () in
        let i = input ~id:"b" text in
        let locs = Array.make (Graph.size i.Plan.graph) Plan.Server in
        (* sprinkle hardware where allowed: put every P4-capable NF on
           the switch to exercise mixed patterns *)
        List.iter
          (fun n ->
            if
              List.mem Plan.Switch
                (Plan.allowed_locations c n.Graph.instance)
            then locs.(n.Graph.id) <- Plan.Switch)
          (Graph.nodes i.Plan.graph);
        let plan = Plan.elaborate c i locs in
        let paths = Graph.linearize i.Plan.graph in
        let fraction_sum =
          Lemur_util.Listx.sum_by (fun p -> p.Graph.fraction) paths
        in
        let server_nodes =
          List.filter
            (fun n -> locs.(n.Graph.id) = Plan.Server)
            (Graph.nodes i.Plan.graph)
        in
        let sg_nodes =
          List.concat_map (fun sg -> sg.Plan.sg_nodes) plan.Plan.subgroups
        in
        Float.abs (fraction_sum -. 1.0) < 1e-9
        && List.length sg_nodes = List.length server_nodes
        && List.for_all
             (fun n -> List.mem n.Graph.id sg_nodes)
             server_nodes
        && List.for_all
             (fun sg -> sg.Plan.sg_fraction > 0.0 && sg.Plan.sg_fraction <= 1.0 +. 1e-9)
             plan.Plan.subgroups
        && plan.Plan.link_visits >= 0.0);
    (* For random linear chains, any Lemur placement satisfies the
       invariants: cores within budget, stages within budget, rate >= tmin. *)
    Test.make ~name:"placement invariants on random chains" ~count:30
      (list_of_size (Gen.int_range 1 5) (oneofl (List.map Lemur_nf.Kind.name kinds_with_server)))
      (fun names ->
        let c = config () in
        let text = String.concat " -> " names in
        let i = input ~id:"rand" text in
        let base = Lemur.Chains.base_rate c i.Plan.graph in
        let slo = Lemur_slo.Slo.make ~t_min:(0.5 *. base) ~t_max:(Lemur_util.Units.gbps 100.) () in
        match Strategy.place Strategy.Lemur c [ { i with Plan.slo } ] with
        | Strategy.Infeasible _ -> true (* allowed; just must not crash *)
        | Strategy.Placed p ->
            p.Strategy.cores_used <= 15
            && p.Strategy.stages_used <= 12
            && List.for_all
                 (fun r -> r.Strategy.rate >= slo.Lemur_slo.Slo.t_min -. 1e3)
                 p.Strategy.chain_reports);
    (* Structural-cache soundness: the same chain set placed with the
       variant cache warm (second call is a hit) must render
       byte-identically to a solve with the cache dropped. *)
    Test.make ~name:"placements identical with warm structural cache"
      ~count:25
      (list_of_size (Gen.int_range 1 4)
         (oneofl (List.map Lemur_nf.Kind.name kinds_with_server)))
      (fun names ->
        let c = config () in
        let text = String.concat " -> " names in
        let i = input ~id:"memoq" text in
        let base = Lemur.Chains.base_rate c i.Plan.graph in
        let slo =
          Lemur_slo.Slo.make ~t_min:(0.4 *. base)
            ~t_max:(Lemur_util.Units.gbps 50.) ()
        in
        let inputs = [ { i with Plan.slo } ] in
        ignore (Strategy.place Strategy.Lemur c inputs);
        let warm = render_outcome (Strategy.place Strategy.Lemur c inputs) in
        Strategy.clear_variant_cache ();
        let cold = render_outcome (Strategy.place Strategy.Lemur c inputs) in
        String.equal warm cold);
  ]

let suite =
  [
    Alcotest.test_case "allowed locations" `Quick test_allowed_locations;
    Alcotest.test_case "invalid pattern rejected" `Quick test_invalid_pattern_rejected;
    Alcotest.test_case "subgroup formation" `Quick test_subgroup_formation;
    Alcotest.test_case "subgroup split by switch NF" `Quick test_subgroup_split_by_switch_nf;
    Alcotest.test_case "branch/merge subgroups pinned" `Quick test_branch_subgroups_not_replicable;
    Alcotest.test_case "limiter pinned" `Quick test_limiter_not_replicable;
    Alcotest.test_case "capacity model" `Quick test_capacity_model;
    Alcotest.test_case "hardware chains at line rate" `Quick test_capacity_infinite_for_hardware;
    Alcotest.test_case "fraction weighting" `Quick test_fraction_weighting;
    Alcotest.test_case "latency model" `Quick test_latency_model;
    Alcotest.test_case "switch projection" `Quick test_switch_projection;
    Alcotest.test_case "stage check extreme config" `Quick test_stagecheck_extreme;
    Alcotest.test_case "lemur evicts to fit stages" `Slow test_lemur_evicts_to_fit;
    Alcotest.test_case "rate LP shares links" `Quick test_ratelp_shares_link;
    Alcotest.test_case "rate LP weights" `Quick test_ratelp_weights;
    Alcotest.test_case "rate LP respects tmin" `Quick test_ratelp_infeasible_tmin;
    Alcotest.test_case "lemur feasible and wins (d=0.5)" `Slow test_lemur_feasible_and_wins;
    Alcotest.test_case "feasibility monotone in delta" `Slow test_feasibility_monotone_in_delta;
    Alcotest.test_case "lemur tracks optimal" `Slow test_lemur_tracks_optimal;
    Alcotest.test_case "SW preferred fails early" `Quick test_sw_preferred_fails_early;
    Alcotest.test_case "ablations weaker" `Quick test_ablations_weaker;
    Alcotest.test_case "multi-server placement" `Slow test_multi_server;
    Alcotest.test_case "strategy pattern corners" `Quick test_strategy_patterns;
    Alcotest.test_case "min bounce picks fewest bounces" `Quick test_min_bounce_picks_fewest_bounces;
    Alcotest.test_case "latency constrains placement" `Quick test_latency_constrains_placement;
    Alcotest.test_case "config signature is structural" `Quick test_config_sig_structural;
    Alcotest.test_case "variant cache exact under demand shift" `Quick test_variant_cache_demand_shift;
    Alcotest.test_case "variant cache rebinds the caller's SLO" `Quick test_variant_cache_rebinds_slo;
    Alcotest.test_case "stage verdict table exact" `Quick test_verdict_table_exact;
    Alcotest.test_case "oracle compiles afresh" `Quick test_oracle_compiles_afresh;
    Alcotest.test_case "evaluate_plans sweeps spare policies" `Quick
      test_evaluate_plans_sweep;
    Alcotest.test_case "min bounce matches full elaboration (Table 2)" `Quick
      test_min_bounce_table2;
    Alcotest.test_case "min bounce matches full elaboration (scenarios)" `Quick
      test_min_bounce_scenarios;
    Alcotest.test_case "all variants infeasible: first reason" `Quick
      test_all_infeasible_reason;
    Alcotest.test_case "variants are the full list without repeats" `Quick
      test_variants_without_repeats;
    Alcotest.test_case "step 3 where a later policy wins" `Quick
      test_later_policy_wins;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases
  @ [
      Alcotest.test_case "elapsed covers the whole place" `Quick test_elapsed_covers_place;
      Alcotest.test_case "variant cache exact on the demand corpus" `Quick
        test_variant_cache_corpus;
    ]
