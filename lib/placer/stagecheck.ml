type verdict = Fits of int | Overflow of int | Conflict of string

let check config plans =
  let tm = Lemur_telemetry.Telemetry.current () in
  let tally suffix =
    Lemur_telemetry.Counter.incr
      (Lemur_telemetry.Telemetry.counter tm ("placer.stagecheck." ^ suffix))
  in
  tally "checks";
  let verdict =
    Lemur_telemetry.Telemetry.with_span tm "placer.stagecheck.check" @@ fun () ->
    let topo = config.Plan.topology in
    let pisa = topo.Lemur_topology.Topology.tor in
    let projections = List.map Plan.switch_projection plans in
    let any_switch_nf =
      List.exists (fun p -> p.Lemur_p4.Pipeline.nf_nodes <> []) projections
    in
    if not any_switch_nf then Fits 0
    else
      match Lemur_p4.Pipeline.unified_parser projections with
      | exception Lemur_p4.Pipeline.Parser_conflict msg -> Conflict msg
      | _parser ->
          let graph =
            Lemur_p4.Pipeline.table_graph ~mode:Lemur_p4.Pipeline.Optimized
              projections
          in
          let packed =
            Lemur_p4.Stagepack.pack
              ~capacity:pisa.Lemur_platform.Pisa.tables_per_stage graph
          in
          let used = packed.Lemur_p4.Stagepack.stages_used in
          if used <= pisa.Lemur_platform.Pisa.stages then Fits used
          else Overflow used
  in
  (match verdict with
  | Fits _ -> tally "fits"
  | Overflow _ -> tally "overflows"
  | Conflict _ -> tally "conflicts");
  verdict

let movable_switch_nodes config plan =
  let graph = plan.Plan.input.Plan.graph in
  List.filter_map
    (fun n ->
      let id = n.Lemur_spec.Graph.id in
      let instance = n.Lemur_spec.Graph.instance in
      if
        plan.Plan.locs.(id) = Plan.Switch
        && List.mem Plan.Server (Plan.allowed_locations config instance)
      then
        Some (id, Plan.instance_cycles config instance)
      else None)
    (Lemur_spec.Graph.nodes graph)
  |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
