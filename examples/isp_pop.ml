(* The paper's motivating deployment: a rack at an ISP point of
   presence runs the four canonical chains of Table 2 with mixed SLOs
   from Table 1 — a virtual pipe, two elastic pipes, and metered bulk —
   on one Tofino ToR and one 16-core BESS server.

     dune exec examples/isp_pop.exe
*)

open Lemur_placer

let () =
  let topology = Lemur_topology.Topology.testbed () in
  let config = Plan.default_config topology in
  Format.printf "== ISP PoP: chains 1-4 with mixed SLOs ==@.%a@."
    Lemur_topology.Topology.pp topology;
  (* Per-chain SLOs: enterprise virtual pipe on chain 2, elastic pipes
     on chains 1 and 3, metered bulk for chain 4's heavy scrubbing. *)
  let slos =
    [
      (1, Lemur_slo.Slo.make ~t_min:(Lemur_util.Units.gbps 1.5) ~t_max:(Lemur_util.Units.gbps 100.0) ());
      (2, Lemur_slo.Slo.make ~t_min:(Lemur_util.Units.gbps 3.0) ~t_max:(Lemur_util.Units.gbps 3.0) ());
      (3, Lemur_slo.Slo.make ~t_min:(Lemur_util.Units.gbps 0.5) ~t_max:(Lemur_util.Units.gbps 100.0) ());
      (4, Lemur_slo.Slo.make ~t_max:(Lemur_util.Units.gbps 2.0) ());
    ]
  in
  let inputs = List.map (fun (n, slo) -> Lemur.Chains.chain_input ~slo n) slos in
  List.iter
    (fun i ->
      Format.printf "%-8s %s: %a@." i.Plan.id
        (Lemur_slo.Slo.use_case_name (Lemur_slo.Slo.classify i.Plan.slo))
        Lemur_slo.Slo.pp i.Plan.slo)
    inputs;
  match Lemur.Deployment.deploy config inputs with
  | Error e ->
      Printf.eprintf "deployment failed: %s\n" e;
      exit 1
  | Ok d ->
      let p = d.Lemur.Deployment.placement in
      Format.printf "@.-- placement (stages %d/12, cores %d/15) --@."
        p.Strategy.stages_used p.Strategy.cores_used;
      List.iter (fun r -> Format.printf "%a" Plan.pp r.Strategy.plan) p.Strategy.chain_reports;
      let result = Lemur.Deployment.measure d in
      Format.printf "@.-- measured --@.%a" Lemur_dataplane.Sim.pp_result result;
      Format.printf "@.-- SLO compliance --@.";
      List.iter
        (fun ((c : Lemur_dataplane.Sim.chain_result), (slo : Lemur_slo.Slo.t), v) ->
          Printf.printf "%-8s %-9s measured %6.2f Gbps (t_min %.2f Gbps), p99 %.1f us\n"
            c.chain_id
            (if Lemur_slo.Slo.met v then "MET" else "VIOLATED")
            (c.delivered /. 1e9) (slo.t_min /. 1e9)
            (Lemur_util.Units.to_us c.p99_latency))
        (Lemur.Deployment.slo_report d result);
      Printf.printf "aggregate marginal throughput: %.2f Gbps\n"
        (p.Strategy.total_marginal /. 1e9)
