(** SLO compliance measurement — violations detected from {e measured}
    output, not plan predictions.

    The Placer's numbers are conservative worst-case predictions; what
    the operator is accountable for is what the dataplane delivers. The
    monitor samples each epoch (a maximal interval with constant
    deployment and demand) on {!Lemur_dataplane.Sim} at the epoch's
    offered rates and judges every chain against its deployed SLO with
    {!Lemur_slo.Slo.verdict} ([~slack:0.]), the rule
    {!Lemur.Deployment.slo_report} and Sim's [dataplane.slo.*] tallies
    also apply.

    One sample window stands in for the whole epoch: violation-seconds
    and marginal-throughput integrals scale the sampled verdict by the
    epoch's wall length. *)

type chain_obs = {
  co_id : string;
  co_offered : float;  (** bit/s offered to the chain this epoch *)
  co_delivered : float;  (** bit/s measured at egress *)
  co_verdict : Lemur_slo.Slo.verdict;
}

type epoch = {
  ep_start : float;  (** seconds into the run *)
  ep_len : float;  (** seconds *)
  ep_obs : chain_obs list;  (** deployment order *)
}

val observe :
  seed:int ->
  sample:float ->
  demand:(string * float) list ->
  start:float ->
  len:float ->
  Lemur.Deployment.t ->
  epoch
(** Sample the deployment for [sample] simulated nanoseconds with each
    chain offered its demand (chains absent from [demand] are offered
    their LP-allocated rate). Deterministic in [seed]. *)

val violation_seconds : epoch -> float
(** Σ over violated chains of the epoch length (chain-seconds). *)
