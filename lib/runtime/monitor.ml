open Lemur_placer

type chain_obs = {
  co_id : string;
  co_offered : float;
  co_delivered : float;
  co_p99_latency : float;
  co_t_min : float;
  co_d_max : float;
  co_throughput_violated : bool;
  co_latency_violated : bool;
  co_marginal : float;
}

type epoch = { ep_start : float; ep_len : float; ep_obs : chain_obs list }

let classify ~offered ~delivered ~p99_latency ~batches_delivered ~t_min ~d_max
    =
  (* the floor only binds up to what the generator offered *)
  let target = Float.min offered t_min in
  let thr_violated = target > 0.0 && delivered < target *. Lemur_slo.Slo.throughput_tolerance in
  let lat_violated =
    d_max < infinity
    &&
    (* A starved chain delivers no batches, so there is no p99 to test —
       but if traffic was offered and nothing came out, the latency SLO
       is violated (unbounded queueing), not vacuously met. *)
    if batches_delivered > 0 then p99_latency > d_max else offered > 0.0
  in
  let marginal = Float.max 0.0 (delivered -. target) in
  (thr_violated, lat_violated, marginal)

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
        let slo = report.Strategy.plan.Plan.input.Plan.slo in
        let t_min = slo.Lemur_slo.Slo.t_min in
        let d_max = slo.Lemur_slo.Slo.d_max in
        let offered = r.Lemur_dataplane.Sim.offered in
        let delivered = r.Lemur_dataplane.Sim.delivered in
        let thr_violated, lat_violated, marginal =
          classify ~offered ~delivered
            ~p99_latency:r.Lemur_dataplane.Sim.p99_latency
            ~batches_delivered:r.Lemur_dataplane.Sim.batches_delivered ~t_min
            ~d_max
        in
        {
          co_id = r.Lemur_dataplane.Sim.chain_id;
          co_offered = offered;
          co_delivered = delivered;
          co_p99_latency = r.Lemur_dataplane.Sim.p99_latency;
          co_t_min = t_min;
          co_d_max = d_max;
          co_throughput_violated = thr_violated;
          co_latency_violated = lat_violated;
          co_marginal = marginal;
        })
      result.Lemur_dataplane.Sim.chains
  in
  { ep_start = start; ep_len = len; ep_obs = obs }

let violated ep =
  List.filter
    (fun o -> o.co_throughput_violated || o.co_latency_violated)
    ep.ep_obs

let violation_seconds ep = float_of_int (List.length (violated ep)) *. ep.ep_len

let pp_epoch ppf ep =
  Format.fprintf ppf "epoch [%.3f, %.3f):" ep.ep_start (ep.ep_start +. ep.ep_len);
  List.iter
    (fun o ->
      Format.fprintf ppf "@ %s offered %a delivered %a%s%s" o.co_id
        Lemur_util.Units.pp_rate o.co_offered Lemur_util.Units.pp_rate
        o.co_delivered
        (if o.co_throughput_violated then " THROUGHPUT-VIOLATED" else "")
        (if o.co_latency_violated then " LATENCY-VIOLATED" else ""))
    ep.ep_obs
