(** Discrete-event packet-level execution of a placement — the
    reproduction's stand-in for the paper's testbed runs (§5.1
    "Metrics": place, generate code, execute, measure).

    The simulator executes batches of packets along each chain's service
    paths: through the ToR (line rate, fixed traversal latency), over
    the shared server links (serialization + bounded queueing), through
    the demux core and the run-to-completion subgroup cores (per-batch
    NF cycle costs sampled from the {e ground-truth} datasheet
    distributions, with the NUMA penalty decided by the core's socket),
    through the SmartNIC and OpenFlow switch where placed. Token buckets
    enforce each chain's [t_max].

    Because the Placer predicts with worst-case profiled cycles while
    execution samples the true distribution, measured throughput
    typically lands at or slightly above the prediction — the §5.2
    "predictions are conservative" effect. *)

type chain_result = {
  chain_id : string;
  offered : float;  (** bit/s offered by the generator *)
  delivered : float;  (** bit/s measured at egress *)
  mean_latency : float;  (** ns, ingress to egress *)
  p50_latency : float;
  p99_latency : float;
  max_latency : float;
  batches_dropped : int;
  batches_delivered : int;
}

type result = {
  chains : chain_result list;
  aggregate_throughput : float;
  duration : float;  (** measured window, ns *)
}

val verdict : slack:float -> Lemur_slo.Slo.t -> chain_result -> Lemur_slo.Slo.verdict
(** {!Lemur_slo.Slo.verdict} on one chain's measured numbers. *)

type traffic =
  | Long_lived  (** a few dozen long-lived flows (footnote 6) *)
  | Short_flows  (** flow churn: 10k new flows/s, 1 s lifetimes *)

val run :
  ?seed:int ->
  ?duration:float ->
  ?batch_pkts:int ->
  ?overdrive:float ->
  ?traffic:traffic ->
  ?offered:(string * float) list ->
  config:Lemur_placer.Plan.config ->
  placement:Lemur_placer.Strategy.placement ->
  unit ->
  result
(** Defaults: seed 7, duration 50 ms, 32-packet batches, overdrive 1.08
    (each chain is offered [overdrive x] its LP-allocated rate, capped
    at [t_max], to expose whether the placement actually sustains its
    allocation). Every run first warms up for 5 ms, which [duration]
    does not include.

    [offered] overrides the generator's per-chain offered rate (bit/s)
    for the chains it lists — still capped at the chain's [t_max] and
    the ToR port rate, but ignoring [overdrive] and the LP allocation.
    A rate of [0] silences the chain. The runtime control loop uses
    this to replay measured demand instead of planned load.

    With telemetry on, each run adds one [dataplane.slo.throughput_*]
    and one [dataplane.slo.latency_*] tally per chain from
    [verdict ~slack:0.] on that chain's own result. *)

val pp_result : Format.formatter -> result -> unit

(** {2 Event order}

    [run] queues chain generators apart from batch slots, in two heaps
    sharing one sequence counter, and serves the earlier top by (time,
    sequence): equal times pop in push order across both. *)

type events
type event = Generate of int | Step of int
val events : unit -> events
val push : events -> float -> event -> unit
val pop : events -> (float * event) option
