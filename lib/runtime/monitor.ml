open Lemur_placer

type chain_obs = {
  co_id : string;
  co_offered : float;
  co_delivered : float;
  co_verdict : Lemur_slo.Slo.verdict;
}

type epoch = { ep_start : float; ep_len : float; ep_obs : chain_obs list }

let observe ~seed ~sample ~demand ~start ~len (d : Lemur.Deployment.t) =
  let result =
    Lemur_dataplane.Sim.run ~seed ~duration:sample ~offered:demand
      ~config:d.Lemur.Deployment.config ~placement:d.Lemur.Deployment.placement
      ()
  in
  let obs =
    List.map
      (fun r ->
        let report =
          List.find
            (fun cr ->
              String.equal cr.Strategy.plan.Plan.input.Plan.id
                r.Lemur_dataplane.Sim.chain_id)
            d.Lemur.Deployment.placement.Strategy.chain_reports
        in
        {
          co_id = r.Lemur_dataplane.Sim.chain_id;
          co_offered = r.Lemur_dataplane.Sim.offered;
          co_delivered = r.Lemur_dataplane.Sim.delivered;
          co_verdict =
            Lemur_dataplane.Sim.verdict ~slack:0.0
              report.Strategy.plan.Plan.input.Plan.slo r;
        })
      result.Lemur_dataplane.Sim.chains
  in
  { ep_start = start; ep_len = len; ep_obs = obs }

let violated ep =
  List.filter (fun o -> not (Lemur_slo.Slo.met o.co_verdict)) ep.ep_obs

let violation_seconds ep = float_of_int (List.length (violated ep)) *. ep.ep_len
