open Lemur_placer

type t = {
  config : Plan.config;
  placement : Strategy.placement;
  artifact : Lemur_codegen.Codegen.artifact;
}

let of_placement config placement =
  let tm = Lemur_telemetry.Telemetry.current () in
  match
    Lemur_telemetry.Telemetry.with_span tm "codegen.compile" (fun () ->
        Lemur_codegen.Codegen.compile config placement)
  with
  | artifact -> (
      (* Validate the emitted steering before calling it deployed. *)
      match
        Lemur_telemetry.Telemetry.with_span tm "codegen.routing_check" (fun () ->
            Lemur_codegen.Routing_check.verify placement artifact)
      with
      | Ok () -> Ok { config; placement; artifact }
      | Error msg -> Error ("generated routing is inconsistent: " ^ msg))
  | exception Lemur_codegen.Ebpfgen.Rejected msg ->
      Error ("eBPF verifier rejected: " ^ msg)
  | exception Lemur_openflow.Openflow.Unplaceable msg ->
      Error ("OpenFlow: " ^ msg)

let deploy ?(strategy = Strategy.Lemur) config inputs =
  match Strategy.place strategy config inputs with
  | Strategy.Infeasible { reason } -> Error reason
  | Strategy.Placed placement -> of_placement config placement

let of_spec ?strategy ?(topology = Lemur_topology.Topology.testbed ()) ?profiler
    ?(metron = false) ?acl_algo source =
  match Chains.inputs_of_spec source with
  | Error e -> Error e
  | Ok inputs ->
      let base_config =
        {
          (Plan.default_config topology) with
          Plan.metron_steering = metron;
          Plan.acl_algo = Option.value acl_algo ~default:None;
        }
      in
      let config =
        match profiler with
        | None -> base_config
        | Some p -> { base_config with Plan.profiler = p }
      in
      deploy ?strategy config inputs

let measure ?seed ?duration ?batch_pkts ?overdrive ?traffic t =
  Lemur_dataplane.Sim.run ?seed ?duration ?batch_pkts ?overdrive ?traffic
    ~config:t.config ~placement:t.placement ()

let slo_report t result =
  List.map
    (fun r ->
      let input = r.Strategy.plan.Plan.input in
      let chain =
        List.find
          (fun c -> String.equal c.Lemur_dataplane.Sim.chain_id input.Plan.id)
          result.Lemur_dataplane.Sim.chains
      in
      ( chain,
        input.Plan.slo,
        Lemur_dataplane.Sim.verdict ~slack:0.0 input.Plan.slo chain ))
    t.placement.Strategy.chain_reports
