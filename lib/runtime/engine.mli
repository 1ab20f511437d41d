(** The online control loop (§7 operationalised): a deterministic
    discrete-event driver that owns a live deployment and pushes it
    through a {!Trace} — traffic churn, SLO edits, chain add/remove,
    hardware failures and recoveries.

    The loop alternates two steps. Between consecutive events it
    {e measures}: the interval is an epoch, sampled once on
    {!Lemur_dataplane.Sim} at the chains' recorded demand
    ({!Monitor.observe}), and each chain's verdict is scaled by the
    epoch's wall length into violation-seconds and marginal-bit
    integrals. At each event it {e reacts}: the event is applied to the
    controller's chain/rack model and classified as a policy
    {!Policy.trigger}; when the policy says act, the Placer re-places
    the whole chain set and the meta-compiler regenerates the
    deployment. Events the model rejects (unknown chain, element not
    failed, duplicate add) are journaled and skipped — the run
    continues, which is what lets the fuzzer feed arbitrary traces.

    {2 Determinism}

    Everything except controller wall-clock decision latency is a pure
    function of [(trace, config)]: epoch sample seeds come from one
    splitmix64 stream seeded with [config.seed], and the placer and
    simulator are deterministic. Two runs of the same trace produce
    reports with equal {!Report.digest}s.

    {2 Demand-aware placement}

    A chain with recorded demand [r] is placed with effective burst
    ceiling [min (t_max, max r t_min)] — the Placer stops reserving
    capacity for bursts nobody is sending, which is what frees resources
    to absorb traffic shifts. The contract [t_min] is never relaxed.

    {2 Mandatory vs deferrable}

    Chain add/remove and failure of an element the current placement
    uses leave the controller no valid deployment to keep running —
    those triggers bypass the policy ({!Policy.Mandatory}). Everything
    else (traffic shifts, SLO edits, recoveries, failures of unused
    elements, window switches under non-scheduled policies) is
    deferrable. A mandatory re-placement with no feasible result stops
    the run ({!Report.Aborted} — a legal outcome, not a controller
    bug); a deferrable one just journals [Infeasible] and keeps the old
    deployment.

    {2 Forecasting (proactive policies)}

    Under {!Policy.Proactive} every chain carries a {!Forecast}
    forecaster fed by its traffic events. Each traffic event then asks:
    would the live deployment's allocation to any chain fall below
    {!Lemur_slo.Slo.throughput_floor} of its predicted demand a horizon
    ahead, inflated by the headroom (the forecast standing in for both
    [t_min] and the offered rate)? If so the event is classified
    {!Policy.Forecast} (the proactive policy acts); otherwise it is an
    ordinary traffic shift (the proactive policy defers). The demand-aware burst ceiling also
    provisions for [max (observed, forecast * (1 + headroom))], so a
    proactive re-placement sizes for where demand is {e headed}.
    Per-chain mean absolute one-step-ahead errors are reported in
    {!Report.t.forecast_mae}.

    {2 Move budget (fast reconfiguration)}

    With [move_budget = Some b], a deferrable re-placement may re-home
    at most [b] chains (a {e move} = a chain present before and after
    whose locations or segment homes changed). When the unconstrained
    placement wants more, the engine keeps the [b] most valuable moves
    (structurally dirty chains first, then the largest allocation
    swings), freezes every other mover at its old locations
    re-elaborated under the current config and SLOs, and re-runs core
    allocation + rate LP over the mixed plan set through
    {!Lemur_placer.Strategy.evaluate_plans}, which sweeps the spare-core
    policies exactly as the Lemur placer does and keeps the best
    feasible one by marginal.
    If even the hybrid cannot respect the budget the event journals
    [Infeasible] and the old deployment stays. Mandatory triggers and
    scheduled window installs are exempt. Counters
    [runtime.replace.moves] / [runtime.replace.moves_capped] record
    migration volume and cap activations. *)

type config = {
  policy : Policy.t;
  seed : int;  (** epoch-sampling seed stream *)
  sample : float;  (** simulated ns per epoch sample (default 10 ms) *)
  check : (Lemur.Deployment.t -> (unit, string) result) option;
      (** oracle hook, run on every intermediate deployment; a failure
          is {!Oracle_rejected} — the differential-testing signal.
          Typically [Lemur_check.Oracle] via [Runtime_check.checker]. *)
  incremental : bool;
      (** Keep the placer's variant cache warm across re-placements
          (the default). Each event derives a dirty set — chains whose
          (graph, t_min) solve key changed under the current config —
          and only those chains' pattern
          searches recompute; demand-only events leave every chain
          clean and re-place from the cached variants. Off, every
          placement starts from dropped caches inside the timed
          section (the from-scratch baseline). Verdicts and report
          digests are identical either way: cache hits are
          byte-identical to recomputation, only decision latency
          moves. Counters [runtime.replace.dirty_chains] /
          [clean_chains] / [warm_starts] record the split. *)
  move_budget : int option;
      (** max chains a deferrable reconfiguration may re-home; [None]
          (the default) = unbounded *)
}

val default_config :
  ?policy:Policy.t ->
  ?seed:int ->
  ?sample:float ->
  ?check:(Lemur.Deployment.t -> (unit, string) result) ->
  ?incremental:bool ->
  ?move_budget:int ->
  unit ->
  config
(** Defaults: [Immediate], seed 11, 10 ms sample, no oracle,
    incremental, no move budget. *)

type error =
  | Trace_invalid of string  (** initial chain set does not parse *)
  | Initial_infeasible of string
      (** the initial chain set has no feasible placement — the trace
          never had a valid starting deployment (fuzzers skip these) *)
  | Oracle_rejected of { at : float; reason : string }
      (** the [check] hook rejected an intermediate deployment: a real
          placer/controller bug, never a legal outcome *)

val error_to_string : error -> string

val run : config -> Trace.t -> (Report.t * Lemur.Deployment.t, error) result
(** Drive the trace to its horizon (or to a mandatory-infeasible
    abort). Returns the compliance report and the last valid
    deployment. *)
