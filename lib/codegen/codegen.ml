open Lemur_placer

type artifact = {
  spi : Spi.t;
  p4 : P4gen.program option;
  bess : Bessgen.server_artifact list;
  ebpf : Ebpfgen.nic_artifact list;
  openflow : Lemur_openflow.Openflow.program option;
}

type loc_stats = {
  library_loc : int;
  generated_loc : int;
  steering_loc : int;
  generated_fraction : float;
}

(* OpenFlow segments of a placement: per service path, maximal runs of
   OF-placed NFs, each compiled against the switch's fixed tables. *)
let openflow_segments spi reports =
  List.concat_map
    (fun report ->
      let plan = report.Strategy.plan in
      if plan.Plan.ofswitch_nodes = [] then []
      else
        List.concat_map
          (fun path ->
            (* A node's SI is its distance from the end of the path. *)
            let len = List.length path.Spi.nodes in
            let close run runs = if run = [] then runs else List.rev run :: runs in
            let run, runs =
              List.fold_left
                (fun (run, runs) (si, id) ->
                  if plan.Plan.locs.(id) = Plan.Ofswitch then ((si, id) :: run, runs)
                  else ([], close run runs))
                ([], [])
                (List.mapi (fun i id -> (len - i, id)) path.Spi.nodes)
            in
            List.rev_map
              (fun run ->
                let kinds =
                  List.map
                    (fun (_, id) ->
                      (Lemur_spec.Graph.node plan.Plan.input.Plan.graph id)
                        .Lemur_spec.Graph.instance
                        .Lemur_nf.Instance.kind)
                    run
                in
                (path.Spi.spi, fst (List.hd run), kinds))
              (close run runs))
          (Spi.paths_of_chain spi plan.Plan.input.Plan.id))
    reports

let compile config placement =
  let reports = placement.Strategy.chain_reports in
  let plans = List.map (fun r -> r.Strategy.plan) reports in
  let spi = Spi.assign plans in
  let any_switch =
    List.exists
      (fun plan -> Array.exists (fun l -> l = Plan.Switch) plan.Plan.locs)
      plans
  in
  let p4 = if any_switch then Some (P4gen.generate config spi plans) else None in
  let bess = Bessgen.generate config reports in
  let ebpf = Ebpfgen.generate config reports in
  let openflow =
    match config.Plan.topology.Lemur_topology.Topology.ofswitch with
    | None -> None
    | Some sw -> (
        match openflow_segments spi reports with
        | [] -> None
        | segments -> Some (Lemur_openflow.Openflow.compile sw segments))
  in
  { spi; p4; bess; ebpf; openflow }

let loc artifact =
  let p4_lib, p4_gen, p4_steer =
    match artifact.p4 with
    | None -> (0, 0, 0)
    | Some p ->
        ( p.P4gen.stats.P4gen.library_lines,
          p.P4gen.stats.P4gen.generated_lines,
          p.P4gen.stats.P4gen.steering_lines )
  in
  let bess_gen =
    Lemur_util.Listx.sum_by
      (fun a -> float_of_int a.Bessgen.generated_lines)
      artifact.bess
    |> int_of_float
  in
  let ebpf_gen =
    Lemur_util.Listx.sum_by
      (fun a -> float_of_int a.Ebpfgen.generated_lines)
      artifact.ebpf
    |> int_of_float
  in
  let of_gen =
    match artifact.openflow with
    | None -> 0
    | Some p -> Lemur_openflow.Openflow.rule_count p
  in
  let generated_loc = p4_gen + bess_gen + ebpf_gen + of_gen in
  let library_loc = p4_lib in
  let total = generated_loc + library_loc in
  {
    library_loc;
    generated_loc;
    steering_loc = p4_steer;
    generated_fraction =
      (if total = 0 then 0.0 else float_of_int generated_loc /. float_of_int total);
  }

let pp_summary ppf artifact =
  (match artifact.p4 with
  | Some p ->
      Format.fprintf ppf "P4: %d lines (%d library, %d generated, %d steering)@."
        p.P4gen.stats.P4gen.total_lines p.P4gen.stats.P4gen.library_lines
        p.P4gen.stats.P4gen.generated_lines p.P4gen.stats.P4gen.steering_lines
  | None -> Format.fprintf ppf "P4: (nothing on the switch)@.");
  List.iter
    (fun b ->
      Format.fprintf ppf "BESS[%s]: %d lines, %d cores@." b.Bessgen.server
        b.Bessgen.generated_lines
        (Lemur_bess.Scheduler.cores_used b.Bessgen.scheduler))
    artifact.bess;
  List.iter
    (fun e ->
      Format.fprintf ppf "eBPF[%s]: %d C lines, %d instructions@." e.Ebpfgen.nf_id
        e.Ebpfgen.generated_lines e.Ebpfgen.instruction_count)
    artifact.ebpf;
  match artifact.openflow with
  | Some p ->
      Format.fprintf ppf "OpenFlow: %d rules@." (Lemur_openflow.Openflow.rule_count p)
  | None -> ()
