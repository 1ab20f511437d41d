(* Quickstart: specify one NF chain with an SLO, let Lemur place it
   across the rack, inspect the generated code, and measure it.

     dune exec examples/quickstart.exe
*)

let spec =
  {|
# Filter, encrypt, and forward customer traffic: an elastic pipe of
# at least 2 Gbps, bursting to 100 Gbps.
chain customer slo(tmin='2Gbps', tmax='100Gbps') =
  ACL(rules=[{'dst_ip': '10.0.0.0/8', 'drop': False}]) -> Encrypt -> IPv4Fwd
|}

let () =
  print_endline "== Lemur quickstart ==";
  print_endline "Specification:";
  print_endline spec;
  match Lemur.Deployment.of_spec spec with
  | Error e ->
      Printf.eprintf "deployment failed: %s\n" e;
      exit 1
  | Ok d ->
      (* 1. the placement the Placer chose *)
      print_endline "-- placement --";
      List.iter
        (fun r -> Format.printf "%a" Lemur_placer.Plan.pp r.Lemur_placer.Strategy.plan)
        d.Lemur.Deployment.placement.Lemur_placer.Strategy.chain_reports;
      Format.printf "predicted aggregate: %a@."
        Lemur_util.Units.pp_rate
        d.Lemur.Deployment.placement.Lemur_placer.Strategy.total_rate;
      (* 2. the code the meta-compiler generated *)
      print_endline "-- generated artifacts --";
      Format.printf "%a" Lemur_codegen.Codegen.pp_summary d.Lemur.Deployment.artifact;
      (match d.Lemur.Deployment.artifact.Lemur_codegen.Codegen.p4 with
      | Some p4 ->
          print_endline "-- first lines of the unified P4 program --";
          String.split_on_char '\n' p4.Lemur_codegen.P4gen.source
          |> Lemur_util.Listx.take 12
          |> List.iter print_endline
      | None -> ());
      (* 3. execute and check the SLO *)
      print_endline "-- measurement --";
      let result = Lemur.Deployment.measure d in
      Format.printf "%a" Lemur_dataplane.Sim.pp_result result;
      List.iter
        (fun ((c : Lemur_dataplane.Sim.chain_result), (slo : Lemur_slo.Slo.t), v) ->
          Printf.printf
            "SLO check %s: measured %.2f Gbps vs t_min %.2f Gbps, p99 %.1f us -> %s\n"
            c.chain_id (c.delivered /. 1e9) (slo.t_min /. 1e9)
            (Lemur_util.Units.to_us c.p99_latency)
            (if Lemur_slo.Slo.met v then "MET" else "VIOLATED"))
        (Lemur.Deployment.slo_report d result)
