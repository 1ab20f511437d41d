(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5). Run all experiments with

     dune exec bench/main.exe

   or a subset by name:

     dune exec bench/main.exe -- fig2a fig3b table4

   Each experiment prints the same rows/series the paper reports;
   EXPERIMENTS.md records the paper-vs-measured comparison. *)

open Lemur_placer
open Lemur_util

let deltas = [ 0.5; 1.0; 1.5; 2.0; 2.5; 3.0; 3.5; 4.0 ]

let comparison_strategies =
  [
    Strategy.Lemur; Strategy.Optimal; Strategy.Hw_preferred;
    Strategy.Sw_preferred; Strategy.Min_bounce; Strategy.Greedy;
  ]

let testbed_config () = Plan.default_config (Lemur_topology.Topology.testbed ())

let gbps x = Printf.sprintf "%.2f" (Units.to_gbps x)

(* Place with [strategy]; when feasible, execute on the simulator and
   return (placement, measured aggregate). *)
let place_and_measure config inputs strategy =
  match Strategy.place strategy config inputs with
  | Strategy.Infeasible _ -> None
  | Strategy.Placed p ->
      let measured =
        (Lemur_dataplane.Sim.run ~config ~placement:p ()).Lemur_dataplane.Sim
          .aggregate_throughput
      in
      Some (p, measured)

(* ------------------------------------------------------------------ *)
(* Figure 2(a-e): aggregate throughput vs delta per chain set          *)

let fig2_sets =
  [
    ("fig2a", [ 1; 2; 3; 4 ]); ("fig2b", [ 1; 2; 3 ]); ("fig2c", [ 1; 2; 4 ]);
    ("fig2d", [ 1; 3; 4 ]); ("fig2e", [ 2; 3; 4 ]);
  ]

let run_fig2 name set =
  let config = testbed_config () in
  Printf.printf "\n## %s: measured aggregate throughput (Gbps) vs delta, chains {%s}\n"
    name
    (String.concat "," (List.map string_of_int set));
  Printf.printf "   ('-' = no feasible placement; Lemur shows measured [predicted])\n";
  let headers =
    "delta" :: "agg t_min" :: List.map Strategy.name comparison_strategies
  in
  let table = Texttable.create ~headers in
  List.iter
    (fun delta ->
      let inputs = Lemur.Chains.inputs_for_delta config ~delta set in
      let agg_tmin =
        Listx.sum_by (fun i -> i.Plan.slo.Lemur_slo.Slo.t_min) inputs
      in
      let cells =
        List.map
          (fun s ->
            match place_and_measure config inputs s with
            | None -> "-"
            | Some (p, measured) ->
                if s = Strategy.Lemur then
                  Printf.sprintf "%s [%s]" (gbps measured) (gbps p.Strategy.total_rate)
                else gbps measured)
          comparison_strategies
      in
      Texttable.add_row table (Printf.sprintf "%.1f" delta :: gbps agg_tmin :: cells))
    deltas;
  Texttable.print table

(* Lemur's marginal-throughput lead over the best baseline (the paper:
   "a marginal throughput lead ranging from 500 Mbps to nearly 24 Gbps"). *)
let run_marginal_lead () =
  let config = testbed_config () in
  Printf.printf "\n## marginal_lead: Lemur's lead over the best alternative per cell\n";
  let leads = ref [] in
  List.iter
    (fun (_, set) ->
      List.iter
        (fun delta ->
          let inputs = Lemur.Chains.inputs_for_delta config ~delta set in
          match Strategy.place Strategy.Lemur config inputs with
          | Strategy.Infeasible _ -> ()
          | Strategy.Placed lemur ->
              let best_other =
                List.filter_map
                  (fun s ->
                    match Strategy.place s config inputs with
                    | Strategy.Placed p -> Some p.Strategy.total_marginal
                    | Strategy.Infeasible _ -> None)
                  [
                    Strategy.Hw_preferred; Strategy.Sw_preferred;
                    Strategy.Min_bounce; Strategy.Greedy;
                  ]
              in
              let lead =
                lemur.Strategy.total_marginal
                -. List.fold_left Float.max 0.0 best_other
              in
              leads := lead :: !leads)
        deltas)
    fig2_sets;
  let s = Lemur_util.Stats.summarize !leads in
  Printf.printf
    "across %d feasible cells: min %s, max %s, mean %s Gbps\n\
     (paper: 500 Mbps to ~24 Gbps on 40G links; max lead as fraction of the\n\
    \ 40G server link: %.0f%%, paper: >50%%)\n"
    s.Lemur_util.Stats.n (gbps s.Lemur_util.Stats.min) (gbps s.Lemur_util.Stats.max)
    (gbps s.Lemur_util.Stats.mean)
    (100.0 *. s.Lemur_util.Stats.max /. Units.gbps 40.0)

(* Feasibility summary across all Fig 2 cells (the paper: Lemur always
   finds a feasible solution; others manage 17-76% of the cases). *)
let run_feasibility_summary () =
  let config = testbed_config () in
  Printf.printf "\n## feasibility: fraction of (chain set x delta) cells solved per scheme\n";
  let cells =
    List.concat_map (fun (_, set) -> List.map (fun d -> (set, d)) deltas) fig2_sets
  in
  let live_cells =
    List.filter
      (fun (set, d) ->
        let inputs = Lemur.Chains.inputs_for_delta config ~delta:d set in
        List.exists
          (fun s -> Strategy.is_feasible (Strategy.place s config inputs))
          comparison_strategies)
      cells
  in
  let table = Texttable.create ~headers:[ "scheme"; "feasible"; "of"; "fraction" ] in
  List.iter
    (fun s ->
      let n =
        List.length
          (List.filter
             (fun (set, d) ->
               let inputs = Lemur.Chains.inputs_for_delta config ~delta:d set in
               Strategy.is_feasible (Strategy.place s config inputs))
             live_cells)
      in
      Texttable.add_row table
        [
          Strategy.name s; string_of_int n; string_of_int (List.length live_cells);
          Printf.sprintf "%.0f%%"
            (100.0 *. float_of_int n /. float_of_int (List.length live_cells));
        ])
    comparison_strategies;
  Texttable.print table

(* ------------------------------------------------------------------ *)
(* Figure 2f: component ablations                                       *)

let run_fig2f () =
  let config = testbed_config () in
  Printf.printf "\n## fig2f: Lemur component ablations, chains {1,2,3,4} (measured Gbps)\n";
  let schemes = [ Strategy.Lemur; Strategy.No_profiling; Strategy.No_core_alloc ] in
  let table = Texttable.create ~headers:("delta" :: List.map Strategy.name schemes) in
  List.iter
    (fun delta ->
      let inputs = Lemur.Chains.inputs_for_delta config ~delta [ 1; 2; 3; 4 ] in
      let cells =
        List.map
          (fun s ->
            match place_and_measure config inputs s with
            | None -> "-"
            | Some (_, m) -> gbps m)
          schemes
      in
      Texttable.add_row table (Printf.sprintf "%.1f" delta :: cells))
    deltas;
  Texttable.print table

(* ------------------------------------------------------------------ *)
(* Table 1: SLO use cases                                               *)

let run_table1 () =
  Printf.printf "\n## table1: SLO specifications capture the operator use cases\n";
  let table = Texttable.create ~headers:[ "t_min"; "t_max"; "classified as" ] in
  let a = Units.gbps 2.0 and b = Units.gbps 8.0 in
  List.iter
    (fun (tmin, tmax, ltmin, ltmax) ->
      let slo = Lemur_slo.Slo.make ~t_min:tmin ~t_max:tmax () in
      Texttable.add_row table
        [ ltmin; ltmax; Lemur_slo.Slo.use_case_name (Lemur_slo.Slo.classify slo) ])
    [
      (0.0, infinity, "0", "inf");
      (0.0, a, "0", "a");
      (a, a, "a", "a");
      (a, b, "a", "b");
      (a, infinity, "a", "inf");
    ];
  Texttable.print table

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3: the evaluation's chains and NF capability matrix     *)

let run_table2 () =
  Printf.printf "\n## table2: the five canonical NF chains\n";
  let table = Texttable.create ~headers:[ "Chain"; "Specification"; "NFs" ] in
  List.iter
    (fun n ->
      Texttable.add_row table
        [
          Printf.sprintf "Chain %d" n;
          Lemur.Chains.spec_text n;
          string_of_int (Lemur_spec.Graph.size (Lemur.Chains.graph n));
        ])
    [ 1; 2; 3; 4; 5 ];
  Texttable.print table;
  Printf.printf "chains 1-4 total %d NF instances (paper: 34)\n"
    (Lemur.Chains.nf_instance_count [ 1; 2; 3; 4 ])

let run_table3 () =
  Printf.printf "\n## table3: NFs and available placement choices\n";
  let table =
    Texttable.create ~headers:[ "NF"; "Spec"; "C++"; "P4"; "eBPF"; "OF"; "Replicable" ]
  in
  List.iter
    (fun kind ->
      let dot target =
        if List.mem target (Lemur_nf.Kind.targets kind) then "x" else ""
      in
      Texttable.add_row table
        [
          Lemur_nf.Kind.name kind;
          Lemur_nf.Kind.spec_summary kind;
          dot Lemur_nf.Target.Cpp; dot Lemur_nf.Target.P4;
          dot Lemur_nf.Target.Ebpf; dot Lemur_nf.Target.Openflow;
          (if Lemur_nf.Kind.replicable kind then "yes" else "NO");
        ])
    Lemur_nf.Kind.all;
  Texttable.print table;
  Printf.printf "(IPv4Fwd is artificially P4-only in the evaluation, as in the paper)\n"

(* ------------------------------------------------------------------ *)
(* Table 4: profiled NF cycle costs                                     *)

let run_table4 () =
  Printf.printf "\n## table4: profiled NF costs (CPU cycles/packet, 500 runs)\n";
  let profiler = Lemur_profiler.Profiler.create () in
  let table = Texttable.create ~headers:[ "NF"; "NUMA"; "Mean"; "Min"; "Max" ] in
  List.iter
    (fun (label, numa, s) ->
      Texttable.add_row table
        [
          label; numa;
          Printf.sprintf "%.0f" s.Stats.mean;
          Printf.sprintf "%.0f" s.Stats.min;
          Printf.sprintf "%.0f" s.Stats.max;
        ])
    (Lemur_profiler.Profiler.table4 profiler);
  Texttable.print table;
  Printf.printf "worst-case vs mean across all NFs: +%.1f%% (paper: within 6.5%%)\n"
    (100.0 *. Lemur_profiler.Profiler.stability_bound profiler)

(* ------------------------------------------------------------------ *)
(* §3.2: size-dependent cost models ("we profile cycle counts for       *)
(* different sizes and use a linear model")                             *)

let run_size_models () =
  Printf.printf "\n## size_models: fitted cycles-vs-state-size linear models\n";
  let profiler = Lemur_profiler.Profiler.create () in
  let table =
    Texttable.create
      ~headers:[ "NF"; "fitted cycles/entry"; "datasheet"; "intercept"; "predict(2x ref)" ]
  in
  List.iter
    (fun kind ->
      match Lemur_profiler.Profiler.fit_size_model profiler kind Lemur_nf.Datasheet.Same with
      | None -> ()
      | Some (slope, intercept) ->
          let ref_size =
            Option.value (Lemur_nf.Datasheet.reference_size kind) ~default:0
          in
          let pred =
            Option.get
              (Lemur_profiler.Profiler.predict_cycles profiler kind
                 Lemur_nf.Datasheet.Same ~size:(2 * ref_size))
          in
          Texttable.add_row table
            [
              Lemur_nf.Kind.name kind;
              Printf.sprintf "%.4f" slope;
              Printf.sprintf "%.4f"
                (Option.value (Lemur_nf.Datasheet.size_slope kind) ~default:0.0);
              Printf.sprintf "%.0f" intercept;
              Printf.sprintf "%.0f cycles" pred;
            ])
    Lemur_nf.Kind.all;
  Texttable.print table;
  Printf.printf
    "(the Placer consumes these through worst-case per-instance profiles;\n\
    \ the fit recovers the ground-truth slope from noisy runs)\n"

(* ------------------------------------------------------------------ *)
(* §5.2: profiling-error sensitivity                                    *)

let run_profiling_error () =
  Printf.printf
    "\n## profiling_error: Lemur marginal throughput under profile under-estimation\n";
  let topo = Lemur_topology.Topology.testbed () in
  let table = Texttable.create ~headers:[ "error"; "marginal (Gbps)"; "feasible" ] in
  List.iter
    (fun error ->
      let config =
        { (Plan.default_config topo) with
          Plan.profiler = Lemur_profiler.Profiler.create ~error () }
      in
      let inputs = Lemur.Chains.inputs_for_delta config ~delta:1.0 [ 1; 2; 3; 4 ] in
      match Strategy.place Strategy.Lemur config inputs with
      | Strategy.Infeasible _ ->
          Texttable.add_row table [ Printf.sprintf "%.0f%%" (error *. 100.0); "-"; "no" ]
      | Strategy.Placed p ->
          Texttable.add_row table
            [
              Printf.sprintf "%.0f%%" (error *. 100.0);
              gbps p.Strategy.total_marginal; "yes";
            ])
    [ 0.0; 0.01; 0.02; 0.03; 0.04; 0.05; 0.06; 0.07; 0.08; 0.09; 0.10 ];
  Texttable.print table;
  Printf.printf "(paper: configuration unchanged up to 8%% error)\n"

(* ------------------------------------------------------------------ *)
(* §5.2: the extreme P4 stage configuration                             *)

let extreme_nats = 17

let extreme_input config delta =
  let arms =
    String.concat ", "
      (List.init extreme_nats (fun k -> Printf.sprintf "{'b': %d, NAT}" (k + 1)))
  in
  let g =
    Lemur_spec.Loader.chain_of_string ~name:"extreme"
      (Printf.sprintf "BPF -> [%s] -> IPv4Fwd" arms)
  in
  let base = Lemur.Chains.base_rate config g in
  {
    Plan.id = "extreme";
    graph = g;
    slo = Lemur_slo.Slo.make ~t_min:(delta *. base) ~t_max:(Units.gbps 100.0) ();
  }

let run_extreme_p4 () =
  let config = testbed_config () in
  Printf.printf
    "\n## extreme_p4: BPF -> %dx NAT (branched) -> IPv4Fwd at delta 0.5\n" extreme_nats;
  Printf.printf
    "   (recalibrated from the paper's 11 NATs: our compiler model packs\n\
    \    parallel branches harder, so the stage wall sits at %d NATs)\n"
    extreme_nats;
  let input = extreme_input config 0.5 in
  (match Strategy.place Strategy.Lemur config [ input ] with
  | Strategy.Infeasible { reason } -> Printf.printf "Lemur: infeasible (%s)\n" reason
  | Strategy.Placed p ->
      let r = List.hd p.Strategy.chain_reports in
      let on_switch =
        Array.fold_left (fun acc l -> if l = Plan.Switch then acc + 1 else acc) 0
          r.Strategy.plan.Plan.locs
      in
      let proj = Plan.switch_projection r.Strategy.plan in
      let optimized =
        Lemur_p4.Pipeline.table_graph ~mode:Lemur_p4.Pipeline.Optimized [ proj ]
      in
      let naive =
        Lemur_p4.Pipeline.table_graph ~mode:Lemur_p4.Pipeline.Naive [ proj ]
      in
      let capacity = 4 in
      Printf.printf
        "Lemur: feasible; %d of %d NFs on the switch (%d moved to the server)\n"
        on_switch
        (Lemur_spec.Graph.size input.Plan.graph)
        (Lemur_spec.Graph.size input.Plan.graph - on_switch);
      let table = Texttable.create ~headers:[ "stage model"; "stages"; "paper" ] in
      Texttable.add_row table
        [
          "compiler (packed)";
          string_of_int
            (Lemur_p4.Stagepack.pack ~capacity optimized).Lemur_p4.Stagepack.stages_used;
          "12";
        ];
      Texttable.add_row table
        [
          "conservative estimate";
          string_of_int (Lemur_p4.Stagepack.estimate ~capacity optimized);
          "14";
        ];
      Texttable.add_row table
        [ "naive codegen"; string_of_int (Lemur_p4.Stagepack.naive_stages naive); "27" ];
      Texttable.print table);
  let table = Texttable.create ~headers:[ "scheme"; "outcome" ] in
  List.iter
    (fun s ->
      let outcome =
        match Strategy.place s config [ input ] with
        | Strategy.Placed p ->
            Printf.sprintf "feasible (%s Gbps)" (gbps p.Strategy.total_rate)
        | Strategy.Infeasible { reason } -> "infeasible: " ^ reason
      in
      Texttable.add_row table [ Strategy.name s; outcome ])
    comparison_strategies;
  Texttable.print table

(* ------------------------------------------------------------------ *)
(* Figure 3a: multiple servers                                          *)

let run_fig3a () =
  Printf.printf "\n## fig3a: chains {1,2,3} on one vs two 8-core servers (measured Gbps)\n";
  let table = Texttable.create ~headers:[ "delta"; "1 server"; "2 servers" ] in
  List.iter
    (fun delta ->
      let cell num_servers =
        let topo =
          Lemur_topology.Topology.testbed ~num_servers ~cores_per_socket:4 ()
        in
        let config = Plan.default_config topo in
        let inputs = Lemur.Chains.inputs_for_delta config ~delta [ 1; 2; 3 ] in
        match place_and_measure config inputs Strategy.Lemur with
        | None -> "-"
        | Some (_, m) -> gbps m
      in
      Texttable.add_row table [ Printf.sprintf "%.1f" delta; cell 1; cell 2 ])
    [ 0.5; 1.0; 1.5; 2.0 ];
  Texttable.print table;
  Printf.printf
    "(paper: 1 server gets less than half the 2-server rate at 0.5, infeasible at 1.5)\n"

(* ------------------------------------------------------------------ *)
(* Figure 3b: SmartNIC offload of chain 5                               *)

let run_fig3b () =
  Printf.printf
    "\n## fig3b: chain 5 (ChaCha) with and without the SmartNIC (measured Gbps)\n";
  let table = Texttable.create ~headers:[ "delta"; "server only"; "with SmartNIC" ] in
  List.iter
    (fun delta ->
      let cell smartnic =
        let topo = Lemur_topology.Topology.testbed ~smartnic () in
        let config = Plan.default_config topo in
        let inputs = Lemur.Chains.inputs_for_delta config ~delta [ 5 ] in
        match place_and_measure config inputs Strategy.Lemur with
        | None -> "-"
        | Some (_, m) -> gbps m
      in
      Texttable.add_row table [ Printf.sprintf "%.1f" delta; cell false; cell true ])
    [ 0.5; 1.0; 2.0; 4.0; 8.0; 9.0; 12.0 ];
  Texttable.print table;
  Printf.printf
    "(paper: NIC offload approaches the 40G line rate; at high enough t_min the\n\
    \ server-only deployment cannot satisfy the SLO even with every core)\n"

(* ------------------------------------------------------------------ *)
(* Figure 3c: OpenFlow switch offload of chain 3's ACL                  *)

let run_fig3c () =
  Printf.printf "\n## fig3c: chain 3 with ACL on an OpenFlow switch vs on the server\n";
  (* A PISA-less deployment: dumb ToR, one server, optionally the OF
     switch. The eval-only IPv4Fwd restriction is lifted here (no PISA
     switch exists to host it). *)
  let cell ofswitch =
    let topo = Lemur_topology.Topology.no_pisa_testbed ~ofswitch () in
    let config = { (Plan.default_config topo) with Plan.eval_capabilities = false } in
    let g = Lemur.Chains.graph 3 in
    let base = Lemur.Chains.base_rate config g in
    let input =
      {
        Plan.id = "chain3";
        graph = g;
        slo = Lemur_slo.Slo.make ~t_min:(0.5 *. base) ~t_max:(Units.gbps 100.0) ();
      }
    in
    match Strategy.place Strategy.Lemur config [ input ] with
    | Strategy.Infeasible { reason } -> "infeasible: " ^ reason
    | Strategy.Placed p ->
        let m =
          (Lemur_dataplane.Sim.run ~config ~placement:p ()).Lemur_dataplane.Sim
            .aggregate_throughput
        in
        let r = List.hd p.Strategy.chain_reports in
        let acl_node =
          List.find
            (fun n ->
              n.Lemur_spec.Graph.instance.Lemur_nf.Instance.kind = Lemur_nf.Kind.Acl)
            (Lemur_spec.Graph.nodes g)
        in
        Format.asprintf "%s Gbps (ACL on %a)" (gbps m) Plan.pp_location
          r.Strategy.plan.Plan.locs.(acl_node.Lemur_spec.Graph.id)
  in
  let table = Texttable.create ~headers:[ "deployment"; "chain 3 throughput" ] in
  Texttable.add_row table [ "OpenFlow switch available"; cell true ];
  Texttable.add_row table [ "server only"; cell false ];
  Texttable.print table;
  Printf.printf "(paper: 7710 Mbps with OF offload vs 693 Mbps via the server)\n"

(* ------------------------------------------------------------------ *)
(* §5.3: latency constraints                                            *)

let run_latency () =
  Printf.printf "\n## latency: chains {1,4} under per-chain latency SLOs\n";
  let config = testbed_config () in
  let table =
    Texttable.create
      ~headers:
        [ "d_max"; "feasible"; "rate (Gbps)"; "max bounces"; "worst latency (us)" ]
  in
  List.iter
    (fun d_max_us ->
      let inputs =
        List.map
          (fun i ->
            {
              i with
              Plan.slo = { i.Plan.slo with Lemur_slo.Slo.d_max = Units.us d_max_us };
            })
          (Lemur.Chains.inputs_for_delta config ~delta:0.5 [ 1; 4 ])
      in
      let label =
        if d_max_us >= 1000.0 then "(none)" else Printf.sprintf "%.0f us" d_max_us
      in
      match Strategy.place Strategy.Lemur config inputs with
      | Strategy.Infeasible { reason } ->
          Texttable.add_row table [ label; "no: " ^ reason; "-"; "-"; "-" ]
      | Strategy.Placed p ->
          let bounces =
            List.fold_left (fun acc r -> max acc r.Strategy.bounces) 0
              p.Strategy.chain_reports
          in
          let worst =
            List.fold_left (fun acc r -> Float.max acc r.Strategy.latency) 0.0
              p.Strategy.chain_reports
          in
          Texttable.add_row table
            [
              label; "yes"; gbps p.Strategy.total_rate; string_of_int bounces;
              Printf.sprintf "%.1f" (Units.to_us worst);
            ])
    [ 1000.0; 45.0; 35.0; 25.0 ];
  Texttable.print table;
  Printf.printf
    "(paper: 45us allows bounce-heavy placement, >21 Gbps; tighter bounds force\n\
    \ fewer bounces at lower rate, then infeasibility. The paper's thresholds\n\
    \ are 45/25us on its testbed; ours shift to 45/35us because our Dedup alone\n\
    \ executes for ~19.5us.)\n"

(* ------------------------------------------------------------------ *)
(* §5.3: meta-compiler LoC and overheads                                *)

let run_codegen_loc () =
  Printf.printf "\n## codegen_loc: meta-compiler output for chains {1,2,3,4}\n";
  let config = testbed_config () in
  let inputs = Lemur.Chains.inputs_for_delta config ~delta:0.5 [ 1; 2; 3; 4 ] in
  match Strategy.place Strategy.Lemur config inputs with
  | Strategy.Infeasible { reason } -> Printf.printf "infeasible: %s\n" reason
  | Strategy.Placed p ->
      let art = Lemur_codegen.Codegen.compile config p in
      Format.printf "%a" Lemur_codegen.Codegen.pp_summary art;
      let loc = Lemur_codegen.Codegen.loc art in
      Printf.printf
        "auto-generated fraction: %.0f%% (paper: more than a third of the P4)\n"
        (100.0 *. loc.Lemur_codegen.Codegen.generated_fraction);
      Printf.printf "steering lines: %d (paper: ~600 of ~820 generated)\n"
        loc.Lemur_codegen.Codegen.steering_loc;
      Printf.printf
        "framework overheads: 2 P4 stages (NSH), %.0f cycles encap/decap, %.0f cycles multi-core LB\n"
        Lemur_bess.Cost.nsh_overhead_cycles Lemur_bess.Cost.multicore_lb_cycles

(* ------------------------------------------------------------------ *)
(* The open-sourced MILP formulation, cross-checked against Optimal     *)

let run_milp () =
  Printf.printf
    "\n## milp: the MILP formulation vs the search-based Optimal (small instance)\n";
  let config = testbed_config () in
  let mk id text tmin =
    {
      Plan.id;
      graph = Lemur_spec.Loader.chain_of_string ~name:id text;
      slo = Lemur_slo.Slo.make ~t_min:tmin ~t_max:(Units.gbps 100.0) ();
    }
  in
  let inputs =
    [ mk "a" "ACL -> Encrypt -> IPv4Fwd" 2e9; mk "b" "BPF -> NAT -> Dedup -> IPv4Fwd" 1e9 ]
  in
  (match Milp.solve config inputs with
  | None -> Printf.printf "MILP: infeasible\n"
  | Some r ->
      Printf.printf "MILP objective: %s Gbps marginal\n" (gbps r.Milp.objective);
      List.iter
        (fun (id, rate) ->
          Printf.printf "  %s: rate %s Gbps, cores %d, server NFs [%s]\n" id
            (gbps rate)
            (List.assoc id r.Milp.cores)
            (String.concat ", " (List.assoc id r.Milp.server_nfs)))
        r.Milp.rates);
  match Strategy.place Strategy.Optimal config inputs with
  | Strategy.Placed p ->
      Printf.printf "search Optimal objective: %s Gbps marginal\n"
        (gbps p.Strategy.total_marginal);
      Printf.printf
        "(the MILP omits the 180-cycle multi-core LB penalty, so it sits\n\
        \ slightly above the search optimum; see lib/placer/milp.mli)\n"
  | Strategy.Infeasible { reason } -> Printf.printf "Optimal: %s\n" reason

(* ------------------------------------------------------------------ *)
(* §5.3: Placer scaling (with a Bechamel microbenchmark)                *)

let run_placer_scaling () =
  Printf.printf
    "\n## placer_scaling: heuristic vs brute-force on chains {1,2,3,4} (34 NFs)\n";
  let config = testbed_config () in
  let inputs = Lemur.Chains.inputs_for_delta config ~delta:1.0 [ 1; 2; 3; 4 ] in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_lemur, _ = time (fun () -> Strategy.place Strategy.Lemur config inputs) in
  let t_opt, _ = time (fun () -> Strategy.place Strategy.Optimal config inputs) in
  let table = Texttable.create ~headers:[ "algorithm"; "wall time (s)"; "paper" ] in
  Texttable.add_row table [ "Lemur heuristic"; Printf.sprintf "%.4f" t_lemur; "3.5 s" ];
  Texttable.add_row table
    [ "brute force (Optimal)"; Printf.sprintf "%.4f" t_opt; "14901 s (~4 h)" ];
  Texttable.print table;
  Printf.printf "speedup: %.0fx (paper: ~4000x)\n" (t_opt /. Float.max 1e-9 t_lemur);
  let open Bechamel in
  let test =
    Test.make ~name:"lemur-heuristic-4-chains"
      (Staged.stage (fun () -> ignore (Strategy.place Strategy.Lemur config inputs)))
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let benchmark =
    Benchmark.all
      (Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ())
      [ clock ] test
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      clock benchmark
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> Printf.printf "bechamel %s: %.3f ms/run\n" name (est /. 1e6)
      | _ -> ())
    results

(* ------------------------------------------------------------------ *)
(* Ablation: the three coalescing variants of §3.2 step 2               *)

let run_ablation_coalescing () =
  Printf.printf
    "\n## ablation_coalescing: marginal throughput (Gbps) of each heuristic variant\n";
  Printf.printf
    "   (Lemur = best of the three; aggressive can backfire, per §3.2)\n";
  let config = testbed_config () in
  let table =
    Texttable.create
      ~headers:[ "chains"; "delta"; "baseline"; "aggressive"; "conservative"; "Lemur" ]
  in
  List.iter
    (fun (set, delta) ->
      let inputs = Lemur.Chains.inputs_for_delta config ~delta set in
      let row =
        match Strategy.lemur_variants config inputs with
        | None -> [ "-"; "-"; "-" ]
        | Some variants ->
            List.map
              (fun plans ->
                match
                  Strategy.evaluate_plans ~policy:Alloc.Slo_driven
                    Strategy.Lemur config plans
                with
                | Strategy.Placed p -> gbps p.Strategy.total_marginal
                | Strategy.Infeasible _ -> "-")
              variants
      in
      let lemur =
        match Strategy.place Strategy.Lemur config inputs with
        | Strategy.Placed p -> gbps p.Strategy.total_marginal
        | Strategy.Infeasible _ -> "-"
      in
      Texttable.add_row table
        (String.concat "," (List.map string_of_int set)
         :: Printf.sprintf "%.1f" delta :: row
        @ [ lemur ]))
    [
      ([ 1; 2; 3; 4 ], 0.5); ([ 1; 2; 3; 4 ], 1.0); ([ 1; 3; 4 ], 0.5);
      ([ 1; 3; 4 ], 1.0); ([ 2; 3; 4 ], 1.0);
    ];
  Texttable.print table

(* ------------------------------------------------------------------ *)
(* Ablation: run-to-completion vs pipelined execution (§3.2's B/C       *)
(* example and §5.3's overhead constants)                               *)

let run_ablation_rtc () =
  Printf.printf
    "\n## ablation_rtc: run-to-completion vs pipelined subgroups (one chain, equal cores)\n";
  let clock = Units.ghz 1.7 in
  let table =
    Texttable.create
      ~headers:
        [ "NF cycles (B, C)"; "coalesced {B,C} 2 cores"; "pipelined {B}+{C} 1+1 cores" ]
  in
  List.iter
    (fun (cb, cc) ->
      let coalesced =
        Lemur_bess.Cost.subgroup_rate ~clock_hz:clock ~cores:2 ~pkt_bytes:1500
          ~nf_cycles:[ cb; cc ] ()
      in
      let pipelined =
        Float.min
          (Lemur_bess.Cost.subgroup_rate ~clock_hz:clock ~cores:1 ~pkt_bytes:1500
             ~nf_cycles:[ cb ] ())
          (Lemur_bess.Cost.subgroup_rate ~clock_hz:clock ~cores:1 ~pkt_bytes:1500
             ~nf_cycles:[ cc ] ())
      in
      Texttable.add_row table
        [
          Printf.sprintf "%.0f, %.0f" cb cc; gbps coalesced; gbps pipelined;
        ])
    [ (1000.0, 1000.0); (8000.0, 8000.0); (500.0, 8000.0); (100.0, 100.0) ];
  Texttable.print table;
  Printf.printf
    "(run-to-completion wins on balanced pairs because the per-hop NSH overhead\n\
    \ (220 cy) exceeds the replication LB cost (180 cy), and wins big on\n\
    \ unbalanced pairs where pipelining is throttled by its slowest stage)\n"

(* ------------------------------------------------------------------ *)
(* Extension: Metron-style core tagging (§3.2/§4.2 future work)         *)

let run_ablation_metron () =
  Printf.printf
    "\n## ablation_metron: ToR-side core tagging (Metron [18]) vs software demux\n";
  let table =
    Texttable.create ~headers:[ "delta"; "software demux"; "core tagging" ]
  in
  List.iter
    (fun delta ->
      let cell metron_steering =
        let config = { (testbed_config ()) with Plan.metron_steering } in
        let inputs = Lemur.Chains.inputs_for_delta config ~delta [ 1; 2; 3; 4 ] in
        match place_and_measure config inputs Strategy.Lemur with
        | None -> "-"
        | Some (_, m) -> gbps m
      in
      Texttable.add_row table [ Printf.sprintf "%.1f" delta; cell false; cell true ])
    [ 0.5; 1.0; 1.5; 2.0 ];
  Texttable.print table;
  Printf.printf
    "(tagging removes the %.0f-cycle LB penalty on replicated subgroups and the\n\
    \ demux hop; the paper leaves this to future work, citing Metron)\n"
    Lemur_bess.Cost.multicore_lb_cycles

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("table3", run_table3);
    ("table4", run_table4);
    ("size_models", run_size_models);
    ("fig2a", fun () -> run_fig2 "fig2a" [ 1; 2; 3; 4 ]);
    ("fig2b", fun () -> run_fig2 "fig2b" [ 1; 2; 3 ]);
    ("fig2c", fun () -> run_fig2 "fig2c" [ 1; 2; 4 ]);
    ("fig2d", fun () -> run_fig2 "fig2d" [ 1; 3; 4 ]);
    ("fig2e", fun () -> run_fig2 "fig2e" [ 2; 3; 4 ]);
    ("fig2f", run_fig2f);
    ("feasibility", run_feasibility_summary);
    ("marginal_lead", run_marginal_lead);
    ("profiling_error", run_profiling_error);
    ("extreme_p4", run_extreme_p4);
    ("fig3a", run_fig3a);
    ("fig3b", run_fig3b);
    ("fig3c", run_fig3c);
    ("latency", run_latency);
    ("codegen_loc", run_codegen_loc);
    ("ablation_coalescing", run_ablation_coalescing);
    ("ablation_rtc", run_ablation_rtc);
    ("ablation_metron", run_ablation_metron);
    ("milp", run_milp);
    ("placer_scaling", run_placer_scaling);
  ]

(* When [--telemetry-dir DIR] precedes the experiment names, each
   experiment runs against a fresh telemetry registry and dumps it to
   DIR/<experiment>.json afterwards (see docs/OBSERVABILITY.md). *)
let with_experiment_telemetry dir name f =
  match dir with
  | None -> f ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let t = Lemur_telemetry.Telemetry.create () in
      Lemur_telemetry.Telemetry.set_current t;
      Fun.protect
        ~finally:(fun () ->
          Lemur_telemetry.Telemetry.set_current Lemur_telemetry.Telemetry.disabled;
          let path = Filename.concat dir (name ^ ".json") in
          try Lemur_telemetry.Telemetry.write_json t path
          with Sys_error msg ->
            Printf.eprintf "bench: cannot write telemetry dump: %s\n" msg)
        f

let () =
  (* The gated harnesses are not paper experiments; they share
     Bench_gate's flags, report envelope and exit codes. *)
  (match Array.to_list Sys.argv with
  | _ :: "scale" :: rest -> exit (Scale_bench.main rest)
  | _ :: "classify" :: rest -> exit (Classify_bench.main rest)
  | _ -> ());
  let telemetry_dir, argv_rest =
    match Array.to_list Sys.argv with
    | _ :: "--telemetry-dir" :: dir :: rest -> (Some dir, rest)
    | _ :: rest -> (None, rest)
    | [] -> (None, [])
  in
  let requested =
    match argv_rest with [] -> List.map fst experiments | names -> names
  in
  let available = String.concat ", " (List.map fst experiments) in
  (* Reject an unknown name before running anything, so a typo never
     exits 0 after a partial run. *)
  (match
     List.find_opt
       (fun name -> name <> "list" && not (List.mem_assoc name experiments))
       requested
   with
  | Some name ->
      Printf.eprintf
        "bench: unknown experiment %S\n\
         usage: bench -- [--telemetry-dir DIR] (list | EXPERIMENT...) | scale ... | classify ...\n\
         experiments: %s\n"
        name available;
      exit 2
  | None -> ());
  Printf.printf "Lemur evaluation harness (see EXPERIMENTS.md for paper-vs-measured)\n";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | None -> Printf.printf "experiments: %s\n" available
      | Some f -> with_experiment_telemetry telemetry_dir name f)
    requested
