(** SLO compliance measurement — violations detected from {e measured}
    output, not plan predictions.

    The Placer's numbers are conservative worst-case predictions; what
    the operator is accountable for is what the dataplane delivers. The
    monitor samples each epoch (a maximal interval with constant
    deployment and demand) on {!Lemur_dataplane.Sim} at the epoch's
    offered rates and classifies every chain against its deployed SLO:

    - {e throughput}: delivered rate below [min (offered, t_min)] (the
      floor only binds up to what was actually offered), with the same
      {!Lemur_slo.Slo.throughput_tolerance} as
      {!Lemur.Deployment.slo_report};
    - {e latency}: measured p99 above [d_max]; a chain with a finite
      [d_max] that was offered traffic but delivered {e no} batches is
      latency-violated too (unbounded queueing delay), not vacuously
      compliant.

    One sample window stands in for the whole epoch: violation-seconds
    and marginal-throughput integrals scale the sampled verdict by the
    epoch's wall length. *)

type chain_obs = {
  co_id : string;
  co_offered : float;  (** bit/s offered to the chain this epoch *)
  co_delivered : float;  (** bit/s measured at egress *)
  co_p99_latency : float;  (** ns *)
  co_t_min : float;
  co_d_max : float;
  co_throughput_violated : bool;
  co_latency_violated : bool;
  co_marginal : float;
      (** bit/s delivered above [min (offered, t_min)] — the same
          offered-capped target the violation verdict uses — [>= 0] *)
}

type epoch = {
  ep_start : float;  (** seconds into the run *)
  ep_len : float;  (** seconds *)
  ep_obs : chain_obs list;  (** deployment order *)
}

val classify :
  offered:float ->
  delivered:float ->
  p99_latency:float ->
  batches_delivered:int ->
  t_min:float ->
  d_max:float ->
  bool * bool * float
(** Pure verdict behind {!observe}:
    [(throughput_violated, latency_violated, marginal)] for one chain's
    measured epoch. Exposed so verdict edge cases (starved chains,
    offered-capped targets) are unit-testable without a simulator run. *)

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

val violated : epoch -> chain_obs list
val violation_seconds : epoch -> float
(** Σ over violated chains of the epoch length (chain-seconds). *)

val pp_epoch : Format.formatter -> epoch -> unit
