(** Differential convergence between the two dataplane executors.

    {!Lemur_dataplane.Sim} predicts chain behaviour by moving whole
    32-packet batches through a rate model; {!Lemur_dataplane.Engine}
    executes individual packets through an element graph. They share
    the routes, the cycle-cost law and the generator law, so on the
    same placement driven at the same offered rates their measured
    per-chain throughput must agree — each validates the other. Where
    they cannot agree is stated here as tolerance, not hidden:

    - {b throughput}: relative tolerance 5 %, plus an absolute
      slack of two measurement quanta per executor (Sim resolves rates
      in [batch_bits/duration] steps, the engine in [pkt_bits/duration]
      steps). The band is asymmetric: below Sim the tolerance is tight
      — an engine shortfall is how capacity bugs look — while above
      Sim the engine is additionally allowed whatever Sim admits to
      having dropped, because Sim's per-batch service sampling carries
      32x the variance and sheds a few percent at its queue caps near
      critical utilization where the packet engine keeps up;
    - {b latency}: one-sided. Sim serializes whole batches at every
      hop, so its latency is structurally inflated; the engine's p99
      must stay {e below} [sim_p99 + 1 ms]. An engine p99
      above that bound means queues grew past anything the rate model
      admits — a capacity bug, not a modeling gap;
    - {b conservation}: [injected = delivered + dropped + in_flight]
      per chain, straight off the engine's counters;
    - chains offered less than {!sim_floor_threshold} bit/s are exempt
      from the rate comparison: at Sim's batch granularity the
      measurement window cannot resolve them (docs/DATAPLANE.md). They
      still count for conservation. *)

type divergence =
  | Throughput_mismatch of {
      chain : string;
      engine : float;  (** bit/s measured by the packet engine *)
      sim : float;  (** bit/s measured by the rate model *)
      tolerance : float;  (** bit/s of slack the comparison allowed *)
    }
  | Latency_blowup of {
      chain : string;
      engine_p99 : float;  (** ns *)
      sim_p99 : float;  (** ns *)
      limit : float;  (** ns, [sim_p99 + 1 ms] *)
    }
  | Conservation_violation of {
      chain : string;
      injected : int;
      delivered : int;
      dropped : int;
      in_flight : int;
    }

val pp_divergence : Format.formatter -> divergence -> unit

type verdict = {
  compared : int;  (** chains held to the rate tolerance *)
  exempt : int;  (** chains below the measurability floor *)
  divergences : divergence list;
}

val sim_floor_threshold : float
(** Minimum offered rate (bit/s) a chain must carry before its
    measured rates are comparable at all; {!Differential} uses it for
    its own SLO-floor stage too. *)

val check :
  pkt_bytes:int ->
  engine:Lemur_dataplane.Engine.result ->
  sim:Lemur_dataplane.Sim.result ->
  unit ->
  verdict
(** Holds the two results to the tolerances above. Chains
    are matched by id; a chain present in only one result is
    ignored (the caller runs both executors on the same placement, so
    a mismatch there is its bug, not a divergence). *)

val ok : verdict -> bool
