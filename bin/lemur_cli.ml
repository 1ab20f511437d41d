(* The lemur command-line tool.

     lemur place   <spec.lemur>   compute and print a placement
     lemur compile <spec.lemur>   run the meta-compiler, print artifacts
     lemur run     <spec.lemur>   place, compile, simulate, report SLOs
     lemur run     --trace FILE   drive the online control loop over a trace
     lemur exec    <spec.lemur>   execute packet-by-packet, check vs the rate model
     lemur trace                  generate / echo runtime traces
     lemur nfs                    list the NF vocabulary (Table 3)

   Common options select the rack: --servers N, --cores-per-socket N,
   --smartnic, --ofswitch, --no-pisa, and --strategy. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Common options                                                       *)

let spec_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc:"Chain specification file.")

let servers =
  Arg.(
    value
    & opt (some int) None
    & info [ "servers" ] ~docv:"N"
        ~doc:
          "Number of NF servers in the rack (default 1; with $(b,--fabric), \
           servers per rack, default 6).")

let cores_per_socket =
  Arg.(value & opt int 8 & info [ "cores-per-socket" ] ~docv:"N" ~doc:"Cores per CPU socket.")

let smartnic =
  Arg.(value & flag & info [ "smartnic" ] ~doc:"Attach an eBPF SmartNIC to server0.")

let ofswitch =
  Arg.(value & flag & info [ "ofswitch" ] ~doc:"Add an OpenFlow switch to the rack.")

let no_pisa =
  Arg.(value & flag & info [ "no-pisa" ] ~doc:"Use a dumb ToR (no PISA switch).")

let metron =
  Arg.(
    value & flag
    & info [ "metron" ]
        ~doc:
          "Enable Metron-style core tagging: the ToR steers packets directly \
           to subgroup replica cores, bypassing the software demultiplexer.")

let telemetry =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Record telemetry (spans, counters, latency histograms) across the \
           placer and the simulated dataplane, and write the JSON dump to \
           $(docv) on exit. See docs/OBSERVABILITY.md for the schema.")

(* Route the instrumented libraries' telemetry to a fresh registry for
   the duration of [f], then dump it — even when [f] fails, so aborted
   runs still leave their diagnostics behind. *)
let with_telemetry file f =
  match file with
  | None -> f ()
  | Some path ->
      let t = Lemur_telemetry.Telemetry.create () in
      Lemur_telemetry.Telemetry.set_current t;
      Fun.protect
        ~finally:(fun () ->
          Lemur_telemetry.Telemetry.set_current Lemur_telemetry.Telemetry.disabled;
          try Lemur_telemetry.Telemetry.write_json t path
          with Sys_error msg ->
            Printf.eprintf "lemur: cannot write telemetry dump: %s\n" msg)
        f

let strategy =
  let strategies =
    List.map
      (fun s -> (String.lowercase_ascii (Lemur_placer.Strategy.name s), s))
      Lemur_placer.Strategy.all
  in
  Arg.(
    value
    & opt (enum strategies) Lemur_placer.Strategy.Lemur
    & info [ "strategy" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Placement strategy: %s."
             (String.concat ", " (List.map fst strategies))))

(* A rack flag the chosen rack would ignore is rejected rather than
   dropped: [flags] pairs each flag with whether it was set. *)
let unused_rack_flags mode why flags =
  match List.find_opt snd flags with
  | Some (flag, _) ->
      Error (Printf.sprintf "%s does not apply with %s: %s" flag mode why)
  | None -> Ok ()

let topology servers cores_per_socket smartnic ofswitch no_pisa =
  let num_servers = Option.value ~default:1 servers in
  if no_pisa then
    Result.map
      (fun () -> Lemur_topology.Topology.no_pisa_testbed ~ofswitch ())
      (unused_rack_flags "--no-pisa"
         "the no-PISA testbed is one fixed 8-core server without a SmartNIC"
         [
           ("--servers", num_servers <> 1);
           ("--cores-per-socket", cores_per_socket <> 8);
           ("--smartnic", smartnic);
         ])
  else
    Ok
      (Lemur_topology.Topology.testbed ~num_servers ~cores_per_socket
         ~smartnic ~ofswitch ())

let acl_algo_arg =
  let algos =
    List.map
      (fun a -> (Lemur_classifier.Classifier.algo_name a, a))
      Lemur_classifier.Classifier.all_algos
  in
  Arg.(
    value
    & opt (some (enum algos)) None
    & info [ "acl-algo" ] ~docv:"ALGO"
        ~doc:
          (Printf.sprintf
             "Model ACL flow classification with $(docv) (%s) — per-packet \
              classification against each ACL's canonical ruleset instead of \
              the flat datasheet cost. See docs/CLASSIFIER.md."
             (String.concat ", " (List.map fst algos))))

let deploy ?(acl_algo = None) strategy topo metron file =
  Result.bind topo (fun topology ->
      Lemur.Deployment.of_spec ~strategy ~topology ~metron ~acl_algo
        (read_file file))

(* ------------------------------------------------------------------ *)

(* Fabric mode: a spec file's chains become tenant templates — each
   chain is one tenant, instantiated --replicas times and homed
   round-robin across the racks. Without a spec file the synthetic
   tenant population (the same one `bench -- scale` uses) stands in. *)
let fabric_demands ~fabric ~seed ~tenants ~chains ~replicas file =
  let module Fabric = Lemur_topology.Fabric in
  match file with
  | None ->
      let tenants =
        match tenants with
        | Some t -> t
        | None -> max 4 (2 * Fabric.num_racks fabric)
      in
      Ok
        (Fabric.expand (Fabric.synthetic_tenants ~seed ~tenants ~chains fabric))
  | Some file -> (
      match Lemur.Chains.inputs_of_spec (read_file file) with
      | Error e -> Error e
      | Ok inputs ->
          let rack_names = Fabric.rack_names fabric in
          let n = List.length rack_names in
          Ok
            (List.concat
               (List.mapi
                  (fun i (c : Lemur_placer.Plan.chain_input) ->
                    let home = List.nth rack_names (i mod n) in
                    List.init replicas (fun k ->
                        {
                          Fabric.d_id =
                            (if replicas = 1 then c.Lemur_placer.Plan.id
                             else Printf.sprintf "%s/%d" c.Lemur_placer.Plan.id k);
                          d_tenant = c.Lemur_placer.Plan.id;
                          d_graph = c.Lemur_placer.Plan.graph;
                          d_slo = c.Lemur_placer.Plan.slo;
                          d_home = Some home;
                          d_pinned = false;
                        }))
                  inputs)))

let place_fabric ~strategy ~servers ~cps ~num_racks ~spines ~uplink_gbps ~seed
    ~tenants ~chains ~replicas ~jobs file =
  let module Fabric = Lemur_topology.Fabric in
  let module Shard = Lemur_placer.Shard in
  let fabric =
    Fabric.synthetic ~racks:num_racks
      ~servers_per_rack:(Option.value ~default:6 servers)
      ~cores_per_socket:cps ~spines ~uplink_gbps ()
  in
  match fabric_demands ~fabric ~seed ~tenants ~chains ~replicas file with
  | exception Fabric.Invalid message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok demands -> (
      let cfg = Shard.default_config ~strategy fabric in
      match Shard.place ?jobs cfg demands with
      | Shard.Infeasible _ as outcome ->
          Format.printf "%a" Shard.pp_outcome outcome;
          1
      | Shard.Placed fp as outcome ->
          Format.printf "%a" Shard.pp_outcome outcome;
          (match Lemur_check.Fabric_check.check fp with
          | Ok () -> Format.printf "oracle: clean@."
          | Error vs ->
              Format.printf "oracle: %d violation(s)@." (List.length vs);
              List.iter
                (fun v ->
                  Format.printf "  %a@." Lemur_check.Fabric_check.pp_violation
                    v)
                vs);
          Format.printf "digest: %s@." (Shard.digest fp);
          0)

let place_cmd =
  let fabric_flag =
    Arg.(
      value & flag
      & info [ "fabric" ]
          ~doc:
            "Place across a spine/leaf fabric of racks (the sharded placer) \
             instead of a single rack. The spec file becomes optional: its \
             chains are used as tenant templates homed round-robin across \
             the racks; without one, a synthetic tenant population is \
             generated (see $(b,--tenants), $(b,--chains), $(b,--seed)).")
  in
  let num_racks =
    Arg.(
      value & opt int 4
      & info [ "racks" ] ~docv:"N" ~doc:"Fabric mode: number of racks.")
  in
  let spines =
    Arg.(
      value & opt int 2
      & info [ "spines" ] ~docv:"N"
          ~doc:"Fabric mode: number of spine switches (uplinks per rack).")
  in
  let uplink_gbps =
    Arg.(
      value & opt float 100.0
      & info [ "uplink-gbps" ] ~docv:"X"
          ~doc:"Fabric mode: capacity of each leaf-spine link, Gbps.")
  in
  let tenants =
    Arg.(
      value
      & opt (some int) None
      & info [ "tenants" ] ~docv:"N"
          ~doc:
            "Fabric mode, synthetic population: tenant count (default \
             2 x racks).")
  in
  let chains =
    Arg.(
      value & opt int 64
      & info [ "chains" ] ~docv:"N"
          ~doc:
            "Fabric mode, synthetic population: total chain instances across \
             all tenants.")
  in
  let replicas =
    Arg.(
      value & opt int 1
      & info [ "replicas" ] ~docv:"N"
          ~doc:
            "Fabric mode, with a spec file: instances of each spec chain \
             (each carries the chain's full SLO).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Fabric mode: synthetic population seed.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Fabric mode: solver domains for the per-rack shards (default: \
             the pool's session default). Results are byte-identical at any \
             value.")
  in
  let spec_file_opt =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"SPEC"
          ~doc:"Chain specification file (optional with $(b,--fabric)).")
  in
  let run strategy servers cps smartnic ofswitch no_pisa metron tfile fabric
      num_racks spines uplink_gbps tenants chains replicas seed jobs file =
    with_telemetry tfile @@ fun () ->
    if fabric then (
      match
        unused_rack_flags "--fabric" "every fabric rack is a synthetic PISA rack"
          [
            ("--no-pisa", no_pisa);
            ("--smartnic", smartnic);
            ("--ofswitch", ofswitch);
            ("--metron", metron);
          ]
      with
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          1
      | Ok () ->
          place_fabric ~strategy ~servers ~cps ~num_racks ~spines ~uplink_gbps
            ~seed ~tenants ~chains ~replicas ~jobs file)
    else
      match file with
      | None ->
          Printf.eprintf "error: a SPEC file is required without --fabric\n";
          2
      | Some file -> (
          let topo = topology servers cps smartnic ofswitch no_pisa in
          match deploy strategy topo metron file with
          | Error e ->
              Printf.eprintf "error: %s\n" e;
              1
          | Ok d ->
              let p = d.Lemur.Deployment.placement in
              List.iter
                (fun r ->
                  Format.printf "%a" Lemur_placer.Plan.pp
                    r.Lemur_placer.Strategy.plan)
                p.Lemur_placer.Strategy.chain_reports;
              Format.printf
                "predicted aggregate %a (marginal %a), %d switch stages, %d \
                 cores, %.3fs@."
                Lemur_util.Units.pp_rate p.Lemur_placer.Strategy.total_rate
                Lemur_util.Units.pp_rate p.Lemur_placer.Strategy.total_marginal
                p.Lemur_placer.Strategy.stages_used
                p.Lemur_placer.Strategy.cores_used
                p.Lemur_placer.Strategy.elapsed;
              0)
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Compute an SLO-satisfying placement for a chain specification, on \
          a single rack or (with $(b,--fabric)) across a spine/leaf fabric.")
    Term.(
      const run $ strategy $ servers $ cores_per_socket $ smartnic $ ofswitch
      $ no_pisa $ metron $ telemetry $ fabric_flag $ num_racks $ spines
      $ uplink_gbps $ tenants $ chains $ replicas $ seed $ jobs
      $ spec_file_opt)

let compile_cmd =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Print the complete generated sources.")
  in
  let run strategy servers cps smartnic ofswitch no_pisa metron full tfile file =
    with_telemetry tfile @@ fun () ->
    let topo = topology servers cps smartnic ofswitch no_pisa in
    match deploy strategy topo metron file with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok d ->
        let art = d.Lemur.Deployment.artifact in
        Format.printf "%a" Lemur_codegen.Codegen.pp_summary art;
        if full then begin
          (match art.Lemur_codegen.Codegen.p4 with
          | Some p -> Printf.printf "\n%s\n" p.Lemur_codegen.P4gen.source
          | None -> ());
          List.iter
            (fun b -> Printf.printf "\n%s\n" b.Lemur_codegen.Bessgen.script)
            art.Lemur_codegen.Codegen.bess;
          List.iter
            (fun e -> Printf.printf "\n%s\n" e.Lemur_codegen.Ebpfgen.c_source)
            art.Lemur_codegen.Codegen.ebpf;
          match art.Lemur_codegen.Codegen.openflow with
          | Some rules -> Format.printf "@.%a" Lemur_openflow.Openflow.pp rules
          | None -> ()
        end;
        0
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Generate the cross-platform coordination code.")
    Term.(
      const run $ strategy $ servers $ cores_per_socket $ smartnic $ ofswitch
      $ no_pisa $ metron $ full $ telemetry $ spec_file)

(* ------------------------------------------------------------------ *)
(* Runtime (control-loop) options, shared by [run] and [trace]          *)

let policy_conv =
  let parse s =
    match Lemur_runtime.Policy.parse s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  let print ppf p =
    Format.pp_print_string ppf (Lemur_runtime.Policy.to_string p)
  in
  Arg.conv (parse, print)

let policy_arg =
  Arg.(
    value
    & opt policy_conv Lemur_runtime.Policy.Immediate
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Reconfiguration policy: $(b,immediate), \
           $(b,debounced[:BUDGET_MS[:COOLDOWN_MS]]), $(b,scheduled) \
           (precomputed per-window placements, mandatory events only), or \
           $(b,proactive[:HORIZON_MS[:ewma:A|:holt:A:B[:HEADROOM]]]) \
           (forecast-triggered reconfiguration ahead of predicted \
           violations).")

let trace_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-seed" ] ~docv:"N"
        ~doc:"Generate the input trace deterministically from this seed.")

let trace_events_arg =
  Arg.(
    value & opt int 60
    & info [ "trace-events" ] ~docv:"N"
        ~doc:"Event count for generated traces.")

let trace_kind_conv =
  let parse s =
    match Lemur_runtime.Trace.kind_of_string s with
    | Ok k -> Ok k
    | Error e -> Error (`Msg e)
  in
  let print ppf k =
    Format.pp_print_string ppf (Lemur_runtime.Trace.kind_to_string k)
  in
  Arg.conv (parse, print)

let trace_kind_arg =
  Arg.(
    value
    & opt trace_kind_conv Lemur_runtime.Trace.Churn
    & info [ "trace-kind" ] ~docv:"KIND"
        ~doc:
          "Generator family for --trace-seed: $(b,churn) (default), \
           $(b,diurnal), $(b,flash-crowd), $(b,failure-burst), or \
           $(b,tenant-churn).")

let move_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "move-budget" ] ~docv:"N"
        ~doc:
          "Cap the chains a deferrable reconfiguration may re-home (trace \
           mode). When the placer wants more moves, the engine freezes the \
           excess chains at their old placement and re-solves allocation; \
           mandatory events are exempt.")

let load_trace trace_file trace_seed trace_kind trace_events =
  match (trace_file, trace_seed) with
  | Some _, Some _ -> Error "--trace and --trace-seed are mutually exclusive"
  | Some file, None -> (
      (* A malformed trace is a user error: print file:line:col, never a
         backtrace. *)
      match Lemur_runtime.Trace.parse ~file (read_file file) with
      | Ok t -> Ok t
      | Error e -> Error (Lemur_runtime.Trace.parse_error_to_string e))
  | None, Some seed ->
      Ok
        (Lemur_runtime.Trace.generate ~events:trace_events ~kind:trace_kind
           ~seed ())
  | None, None -> Error "no trace: pass --trace FILE or --trace-seed N"

let runtime_run ~policy ~engine_seed ~sample_ms ~no_check ~no_incremental
    ~move_budget ~report_file trace =
  let check =
    if no_check then None else Some Lemur_check.Runtime_check.checker
  in
  let cfg =
    Lemur_runtime.Engine.default_config ~policy ~seed:engine_seed
      ~sample:(Lemur_util.Units.ms sample_ms) ?check
      ~incremental:(not no_incremental) ?move_budget ()
  in
  match Lemur_runtime.Engine.run cfg trace with
  | Error e ->
      Printf.eprintf "error: %s\n" (Lemur_runtime.Engine.error_to_string e);
      1
  | Ok (report, _) ->
      Format.printf "%a@." Lemur_runtime.Report.pp report;
      Printf.printf "report digest: %s\n" (Lemur_runtime.Report.digest report);
      (match report_file with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          output_string oc
            (Lemur_telemetry.Json.to_string
               (Lemur_runtime.Report.to_json report));
          output_string oc "\n";
          close_out oc);
      (match report.Lemur_runtime.Report.stop with
      | Lemur_runtime.Report.Completed -> 0
      | Lemur_runtime.Report.Aborted _ -> 2)

let run_cmd =
  let duration =
    Arg.(
      value & opt float 50.0
      & info [ "duration" ] ~docv:"MS" ~doc:"Simulated measurement window (ms).")
  in
  let spec_opt =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"SPEC"
          ~doc:"Chain specification file (one-shot mode; omit with --trace).")
  in
  let trace_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Drive the online control loop over this event trace instead of \
             a one-shot simulation. See docs/RUNTIME.md for the format.")
  in
  let engine_seed =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~docv:"N" ~doc:"Control-loop sampling seed.")
  in
  let sample_ms =
    Arg.(
      value & opt float 10.0
      & info [ "sample" ] ~docv:"MS"
          ~doc:"Simulated window sampled per epoch (trace mode, ms).")
  in
  let no_check =
    Arg.(
      value & flag
      & info [ "no-check" ]
          ~doc:
            "Skip the placement-oracle check on intermediate deployments \
             (trace mode; the check is on by default).")
  in
  let no_incremental =
    Arg.(
      value & flag
      & info [ "no-incremental" ]
          ~doc:
            "Drop the placer's variant cache before every re-placement \
             instead of keeping it warm across events (trace mode). \
             Placements and the report digest are identical either way; \
             only decision latency changes.")
  in
  let report_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the JSON compliance report to $(docv) (trace mode).")
  in
  let run strategy servers cps smartnic ofswitch no_pisa metron duration
      trace_file trace_seed trace_kind trace_events policy engine_seed
      sample_ms no_check no_incremental move_budget report_file tfile file =
    with_telemetry tfile @@ fun () ->
    match (trace_file, trace_seed, file) with
    | (Some _, _, _ | _, Some _, _) when file <> None ->
        Printf.eprintf "error: a SPEC file and a trace are mutually exclusive\n";
        1
    | (Some _, _, _ | _, Some _, _) -> (
        let rack_flags =
          unused_rack_flags "a trace" "its topology line sets the rack"
            [
              ("--servers", servers <> None);
              ("--cores-per-socket", cps <> 8);
              ("--smartnic", smartnic);
              ("--ofswitch", ofswitch);
              ("--no-pisa", no_pisa);
              ("--metron", metron);
            ]
        in
        match
          Result.bind rack_flags (fun () ->
              load_trace trace_file trace_seed trace_kind trace_events)
        with
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            1
        | Ok trace ->
            runtime_run ~policy ~engine_seed ~sample_ms ~no_check
              ~no_incremental ~move_budget ~report_file trace)
    | None, None, None ->
        Printf.eprintf "error: pass a SPEC file, or --trace / --trace-seed\n";
        1
    | None, None, Some file -> (
        let topo = topology servers cps smartnic ofswitch no_pisa in
        match deploy strategy topo metron file with
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            1
        | Ok d ->
            let result =
              Lemur.Deployment.measure ~duration:(Lemur_util.Units.ms duration) d
            in
            Format.printf "%a" Lemur_dataplane.Sim.pp_result result;
            let report = Lemur.Deployment.slo_report d result in
            let verdict met = if met then "met" else "VIOLATED" in
            List.iter
              (fun ((c : Lemur_dataplane.Sim.chain_result), (slo : Lemur_slo.Slo.t), v)
                 ->
                Printf.printf
                  "SLO %s throughput: %s (measured %.2f Gbps, t_min %.2f Gbps)\n"
                  c.chain_id (verdict v.Lemur_slo.Slo.throughput_met)
                  (c.delivered /. 1e9) (slo.t_min /. 1e9);
                Printf.printf "SLO %s latency: %s (%s, d_max %s)\n" c.chain_id
                  (verdict v.Lemur_slo.Slo.latency_met)
                  (if c.batches_delivered = 0 then "nothing delivered"
                   else
                     Printf.sprintf "p99 %.1f us"
                       (Lemur_util.Units.to_us c.p99_latency))
                  (if slo.d_max = infinity then "none"
                   else
                     Printf.sprintf "%.1f us" (Lemur_util.Units.to_us slo.d_max)))
              report;
            if List.for_all (fun (_, _, v) -> Lemur_slo.Slo.met v) report then 0
            else 2)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Place, compile, and execute on the packet-level simulator — one \
          shot from a SPEC file, or as an online control loop over an event \
          trace (--trace / --trace-seed).")
    Term.(
      const run $ strategy $ servers $ cores_per_socket $ smartnic $ ofswitch
      $ no_pisa $ metron $ duration $ trace_file $ trace_seed_arg
      $ trace_kind_arg $ trace_events_arg $ policy_arg $ engine_seed
      $ sample_ms $ no_check $ no_incremental $ move_budget_arg $ report_file
      $ telemetry $ spec_opt)

let exec_cmd =
  let duration =
    Arg.(
      value & opt float 10.0
      & info [ "duration" ] ~docv:"MS" ~doc:"Simulated measurement window (ms).")
  in
  let seed =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Generator seed, shared by both executors so they measure the \
             same workload.")
  in
  let overdrive =
    Arg.(
      value & opt float 1.08
      & info [ "overdrive" ] ~docv:"X"
          ~doc:"Drive each chain at $(docv) times its accepted rate.")
  in
  let elements =
    Arg.(
      value & flag
      & info [ "elements" ]
          ~doc:
            "Also print per-element ring statistics (pulled / pushed / \
             dropped / still queued).")
  in
  let no_converge =
    Arg.(
      value & flag
      & info [ "no-converge" ]
          ~doc:
            "Skip the differential check against the batch-rate simulator \
             (the engine alone still verifies packet conservation).")
  in
  let run strategy servers cps smartnic ofswitch no_pisa metron acl_algo
      duration seed overdrive elements no_converge tfile file =
    with_telemetry tfile @@ fun () ->
    let topo = topology servers cps smartnic ofswitch no_pisa in
    match deploy ~acl_algo strategy topo metron file with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok d ->
        let config = d.Lemur.Deployment.config in
        let placement = d.Lemur.Deployment.placement in
        let duration = Lemur_util.Units.ms duration in
        let cls_before = Lemur_classifier.Classifier.stats () in
        let er =
          Lemur_dataplane.Engine.run ~seed ~duration ~overdrive ~config
            ~placement ()
        in
        Format.printf "%a" Lemur_dataplane.Engine.pp_result er;
        Format.printf "%a" Lemur_classifier.Classifier.pp_stats_delta
          (cls_before, Lemur_classifier.Classifier.stats ());
        if elements then
          List.iter
            (fun (e : Lemur_dataplane.Engine.element_stat) ->
              Printf.printf
                "  el %-40s pulled %7d pushed %7d dropped %7d queued %5d\n"
                e.Lemur_dataplane.Engine.el_name
                e.Lemur_dataplane.Engine.el_pulled
                e.Lemur_dataplane.Engine.el_pushed
                e.Lemur_dataplane.Engine.el_dropped
                e.Lemur_dataplane.Engine.el_queued)
            er.Lemur_dataplane.Engine.elements;
        let conserved = Lemur_dataplane.Engine.conserved er in
        if no_converge then if conserved then 0 else 2
        else begin
          let sr =
            Lemur_dataplane.Sim.run ~seed ~duration ~overdrive ~config
              ~placement ()
          in
          let verdict =
            Lemur_check.Convergence.check
              ~pkt_bytes:config.Lemur_placer.Plan.pkt_bytes ~engine:er ~sim:sr
              ()
          in
          Format.printf "convergence vs sim: %d chain(s) compared, %d exempt@."
            verdict.Lemur_check.Convergence.compared
            verdict.Lemur_check.Convergence.exempt;
          match verdict.Lemur_check.Convergence.divergences with
          | [] ->
              Format.printf "convergence: ok@.";
              if conserved then 0 else 2
          | ds ->
              List.iter
                (fun dvg ->
                  Format.printf "  DIVERGENCE %a@."
                    Lemur_check.Convergence.pp_divergence dvg)
                ds;
              2
        end
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "Place a chain specification and execute it packet-by-packet on the \
          element-graph engine, then hold the measured per-chain rates to the \
          batch-rate simulator's within the documented convergence tolerance \
          (see docs/DATAPLANE.md).")
    Term.(
      const run $ strategy $ servers $ cores_per_socket $ smartnic $ ofswitch
      $ no_pisa $ metron $ acl_algo_arg $ duration $ seed $ overdrive
      $ elements $ no_converge $ telemetry $ spec_file)

let trace_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the trace to $(docv) instead of stdout.")
  in
  let input =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Re-echo (parse, normalize, print) an existing trace file \
             instead of generating one — a round-trip validator.")
  in
  let run seed kind events out input =
    let trace =
      match input with
      | Some file -> (
          match Lemur_runtime.Trace.parse ~file (read_file file) with
          | Ok t -> Ok t
          | Error e -> Error (Lemur_runtime.Trace.parse_error_to_string e))
      | None -> Ok (Lemur_runtime.Trace.generate ~events ~kind ~seed ())
    in
    match trace with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok t -> (
        let text = Lemur_runtime.Trace.to_string t in
        match out with
        | None ->
            print_string text;
            0
        | Some path ->
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            0)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Generate a deterministic runtime event trace from a seed, or \
          validate an existing one by round-tripping it.")
    Term.(const run $ seed $ trace_kind_arg $ trace_events_arg $ out $ input)

let failover_cmd =
  let fail_arg =
    let parse s = Result.map_error (fun e -> `Msg e) (Lemur.Failover.of_string s) in
    let print ppf f = Lemur.Failover.pp_failure ppf f in
    Arg.(
      value
      & opt_all (conv (parse, print)) [ Lemur.Failover.Pisa_failed ]
      & info [ "fail" ] ~docv:"ELEMENT"
          ~doc:"Element to fail: pisa, smartnic, ofswitch, or serverN. Repeatable.")
  in
  let run strategy servers cps smartnic ofswitch no_pisa metron failures tfile file =
    with_telemetry tfile @@ fun () ->
    let topo = topology servers cps smartnic ofswitch no_pisa in
    (* An element the rack does not have is bad input, not a missing
       fallback. *)
    let rec racks topo = function
      | [] -> Ok []
      | f :: rest -> (
          match Lemur.Failover.degrade topo f with
          | Error e ->
              Error (Printf.sprintf "--fail %s: %s" (Lemur.Failover.to_string f) e)
          | Ok rack -> Result.map (fun l -> (f, rack) :: l) (racks topo rest))
    in
    match
      (deploy strategy topo metron file, Result.bind topo (fun t -> racks t failures))
    with
    | Error e, _ | _, Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok d, Ok racks ->
        (* Each fallback re-places the primary's chains on its degraded
           rack, as the runtime engine's [Fail] step does. *)
        let inputs =
          List.map
            (fun r -> r.Lemur_placer.Strategy.plan.Lemur_placer.Plan.input)
            d.Lemur.Deployment.placement.Lemur_placer.Strategy.chain_reports
        in
        let failed = ref false in
        List.iter
          (fun (failure, topology) ->
            Format.printf "@.== after %a ==@." Lemur.Failover.pp_failure failure;
            match
              Lemur.Deployment.deploy ~strategy
                { d.Lemur.Deployment.config with Lemur_placer.Plan.topology }
                inputs
            with
            | Error e ->
                failed := true;
                Printf.printf "no fallback: %s\n" e
            | Ok d' ->
                let p = d'.Lemur.Deployment.placement in
                List.iter
                  (fun r ->
                    Format.printf "%a" Lemur_placer.Plan.pp r.Lemur_placer.Strategy.plan)
                  p.Lemur_placer.Strategy.chain_reports;
                Format.printf "fallback aggregate %a@." Lemur_util.Units.pp_rate
                  p.Lemur_placer.Strategy.total_rate)
          racks;
        if !failed then 2 else 0
  in
  Cmd.v
    (Cmd.info "failover"
       ~doc:
         "Show the fallback placement for each anticipated hardware failure, \
          each placed on the rack degraded by that failure alone.")
    Term.(
      const run $ strategy $ servers $ cores_per_socket $ smartnic $ ofswitch
      $ no_pisa $ metron $ fail_arg $ telemetry $ spec_file)

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "First scenario seed. Scenarios are generated deterministically \
             from consecutive seeds, so any reported failure replays with \
             $(b,--seed) $(i,N) $(b,--count) $(i,1).")
  in
  let count =
    Arg.(
      value & opt int 50
      & info [ "count" ] ~docv:"N" ~doc:"Number of scenarios to run.")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Minimize each failing scenario before reporting it (re-runs the \
             differential on each shrinking step).")
  in
  let thorough =
    Arg.(
      value & flag
      & info [ "thorough" ]
          ~doc:
            "Larger scenarios, longer simulated windows, and simulator checks \
             on the Optimal placement too (the default quick mode bounds \
             instance sizes so the brute-force strategy stays fast).")
  in
  let no_sim =
    Arg.(
      value & flag
      & info [ "no-sim" ] ~doc:"Skip the packet-level simulator stage.")
  in
  let max_failures =
    Arg.(
      value & opt int 5
      & info [ "max-failures" ] ~docv:"N"
          ~doc:"Stop after this many failing scenarios.")
  in
  let runtime =
    Arg.(
      value & flag
      & info [ "runtime" ]
          ~doc:
            "Fuzz the online control loop instead of the placement \
             strategies: drive generated event traces through the engine \
             under every policy with the placement oracle hooked in, \
             checking report determinism, and shrink failures to a minimal \
             event sequence.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Evaluate scenarios on $(docv) parallel domains (default: the \
             machine's recommended domain count). Results are merged in \
             seed order, so the summary and its digest are byte-identical \
             at any $(docv) — including $(b,-j 1).")
  in
  let run seed count shrink thorough no_sim max_failures runtime events jobs
      tfile =
    with_telemetry tfile @@ fun () ->
    let jobs =
      match jobs with
      | Some j when j >= 1 -> j
      | Some _ -> 1
      | None -> Lemur_util.Pool.recommended_domains ()
    in
    Lemur_util.Pool.set_default jobs;
    if runtime then begin
      let summary =
        Lemur_check.Runtime_check.run ~events ~shrink ~max_failures ~jobs
          ~seed ~count ()
      in
      Format.printf "%a@." Lemur_check.Runtime_check.pp_summary summary;
      if Lemur_check.Runtime_check.ok summary then 0 else 1
    end
    else begin
      let summary =
        Lemur_check.Fuzz.run ~quick:(not thorough) ~sim:(not no_sim) ~shrink
          ~max_failures ~jobs ~seed ~count ()
      in
      Format.printf "%a" Lemur_check.Fuzz.pp_summary summary;
      if Lemur_check.Fuzz.ok summary then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially check placement strategies on generated scenarios: \
          every feasible placement must pass the independent constraint \
          oracle, no strategy may beat the brute-force Optimal search, and \
          the simulator must deliver each accepted SLO floor. With \
          $(b,--runtime), fuzz the online control loop on generated event \
          traces instead.")
    Term.(
      const run $ seed $ count $ shrink $ thorough $ no_sim $ max_failures
      $ runtime $ trace_events_arg $ jobs $ telemetry)

let classify_cmd =
  let sizes =
    Arg.(
      value
      & opt (list int) [ 1000; 10000 ]
      & info [ "sizes" ] ~docv:"N,N,.."
          ~doc:"Ruleset sizes to generate and classify against.")
  in
  let lookups =
    Arg.(
      value & opt int 2000
      & info [ "lookups" ] ~docv:"N"
          ~doc:"Lookups per ruleset (distinct deterministic flow headers).")
  in
  let seed =
    Arg.(
      value
      & opt int Lemur_classifier.Ruleset.default_seed
      & info [ "seed" ] ~docv:"N" ~doc:"Ruleset generator seed.")
  in
  let run sizes lookups seed tfile =
    with_telemetry tfile @@ fun () ->
    let module C = Lemur_classifier.Classifier in
    let module Ruleset = Lemur_classifier.Ruleset in
    let module Rule = Lemur_classifier.Rule in
    let before = C.stats () in
    let agree = ref true in
    List.iter
      (fun size ->
        if size < 0 then begin
          Printf.eprintf "error: ruleset size %d < 0\n" size;
          exit 1
        end;
        let rs = Ruleset.generate ~seed ~size () in
        let headers = Ruleset.headers rs ~flows:lookups in
        let cls = List.map (fun a -> (a, C.build a rs)) C.all_algos in
        Printf.printf "ruleset: %d rule(s), seed %#x, %d lookup(s)\n" size seed
          lookups;
        let t =
          Lemur_util.Texttable.create
            ~headers:[ "algo"; "mean cyc"; "worst cyc"; "structure" ]
        in
        List.iter
          (fun (a, c) ->
            Lemur_util.Texttable.add_row t
              [
                C.algo_name a;
                Printf.sprintf "%.0f" (C.mean_cycles c headers);
                Printf.sprintf "%.0f" (C.worst_cycles c headers);
                C.describe c;
              ])
          cls;
        Lemur_util.Texttable.print t;
        (* Hard agreement gate: every classifier must report the same
           highest-priority rule on every lookup. *)
        let mismatches = ref 0 in
        Array.iter
          (fun h ->
            let id (_, c) =
              match (C.classify c h).C.o_rule with
              | Some r -> r.Rule.id
              | None -> -1
            in
            match List.map id cls with
            | [] -> ()
            | r :: rest ->
                if not (List.for_all (fun x -> x = r) rest) then
                  incr mismatches)
          headers;
        if !mismatches > 0 then begin
          agree := false;
          Printf.printf "agreement: %d MISMATCH(ES) over %d lookup(s)\n"
            !mismatches lookups
        end
        else Printf.printf "agreement: exact over %d lookup(s)\n" lookups;
        print_newline ())
      sizes;
    Format.printf "%a" C.pp_stats_delta (before, C.stats ());
    if !agree then 0 else 1
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Build the synthetic ruleset at each size and classify a \
          deterministic header corpus with all three classifiers — priority \
          linear scan, tuple-space search and the NuevoMatch-style computed \
          index — printing modeled per-lookup cycles and failing if any two \
          classifiers disagree on any lookup (see docs/CLASSIFIER.md).")
    Term.(const run $ sizes $ lookups $ seed $ telemetry)

let nfs_cmd =
  let run () =
    let t = Lemur_util.Texttable.create ~headers:[ "NF"; "Spec"; "Targets"; "Stateful"; "Replicable" ] in
    List.iter
      (fun kind ->
        Lemur_util.Texttable.add_row t
          [
            Lemur_nf.Kind.name kind;
            Lemur_nf.Kind.spec_summary kind;
            String.concat ", "
              (List.map Lemur_nf.Target.to_string (Lemur_nf.Kind.targets kind));
            (if Lemur_nf.Kind.stateful kind then "yes" else "no");
            (if Lemur_nf.Kind.replicable kind then "yes" else "no");
          ])
      Lemur_nf.Kind.all;
    Lemur_util.Texttable.print t;
    0
  in
  Cmd.v
    (Cmd.info "nfs" ~doc:"List the NF vocabulary and platform support (Table 3).")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "lemur" ~version:"1.0.0"
      ~doc:"Meeting SLOs in cross-platform NFV (CoNEXT '20 reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            place_cmd; compile_cmd; run_cmd; exec_cmd; trace_cmd; failover_cmd;
            fuzz_cmd; classify_cmd; nfs_cmd;
          ]))
