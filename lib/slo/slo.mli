(** Service-level objectives (§2, Table 1).

    For each traffic aggregate / NF chain, the operator specifies a
    minimum throughput [t_min], a maximum throughput [t_max] (burst
    ceiling), and a maximum chain delay [d_max]. The ISP must provision
    at least [t_min] within [d_max]; traffic above [t_min] is
    usage-priced, so Lemur maximizes the aggregate marginal throughput
    Σ (rate - t_min). *)

type t = {
  t_min : float;  (** bit/s; 0 means best-effort *)
  t_max : float;  (** bit/s; [infinity] means uncapped *)
  d_max : float;  (** nanoseconds; [infinity] means unconstrained *)
  weight : float;
      (** relative marginal-revenue weight (footnote 2 of the paper:
          "an ISP may wish to allocate higher marginal rates to certain
          customers"); the rate LP maximizes Σ weight x (r - t_min).
          Default 1. *)
}

val make : ?t_min:float -> ?t_max:float -> ?d_max:float -> ?weight:float -> unit -> t
(** Defaults: best-effort, uncapped, unconstrained, weight 1. *)

val best_effort : t

type use_case =
  | Bulk  (** t_min = 0, t_max = inf: best effort *)
  | Metered_bulk  (** t_min = 0, t_max = a: best effort capped *)
  | Virtual_pipe  (** t_min = t_max = a: exactly a guaranteed *)
  | Elastic_pipe  (** a <= rate, bursts to b *)
  | Infinite_pipe  (** at least a, uncapped *)

val classify : t -> use_case
(** Table 1 classification. *)

val use_case_name : use_case -> string

val marginal : t -> float -> float
(** [marginal slo rate] = max 0 (rate - t_min): the usage-priced
    component of the chain's throughput. *)

(** Whether one measured run of a chain met its SLO. *)
type verdict = {
  throughput_met : bool;
  latency_met : bool;
  marginal : float;
      (** bit/s delivered above the target [min offered t_min], [>= 0] *)
}

val throughput_floor : slack:float -> t -> offered:float -> float
(** [throughput_tolerance × min offered t_min − slack]: the lowest
    delivered rate {!verdict} accepts. The floor binds only up to what
    was offered, so a chain offered less than its [t_min] is not short
    for traffic that never arrived. *)

val verdict :
  slack:float ->
  t ->
  offered:float ->
  delivered:float ->
  p99:float ->
  batches:int ->
  verdict
(** The one rule for "did this chain meet its SLO" over one measured
    run: [offered] and [delivered] in bit/s, [p99] in ns over the
    [batches] the run delivered. [slack] (bit/s) lowers the throughput
    floor for measurement quantization; pass [0.] for none.

    - Throughput is met unless [delivered < throughput_floor ~slack slo
      ~offered]. An idle chain ([offered = 0]) or a best-effort one
      ([t_min = 0]) is never short.
    - Latency is met when [d_max] is infinite; otherwise when
      [p99 <= d_max] if the run delivered any batch, and when nothing
      was offered if it delivered none. A {e starved} chain (offered
      traffic, no batch out) has no p99 to test and is latency-violated:
      its queueing delay is unbounded, not vacuously within [d_max].
    - [marginal] is measured against the same offered-capped target, so
      delivery above a small offered load counts as margin. *)

val met : verdict -> bool
(** Both halves met. *)

exception Invalid of string

val validate : t -> unit
(** @raise Invalid if [t_min > t_max] or any component is negative. *)

val of_params : Lemur_nf.Params.t -> t
(** Interpret [slo(...)] arguments from the spec language. Recognized
    keys: [tmin], [tmax] (rate strings like ["2.5Gbps"], ["800Mbps"], or
    raw numbers in bit/s) and [dmax] (["45us"], ["1ms"], or raw
    nanoseconds).
    @raise Invalid on unknown keys or unparsable values. *)

val rate_of_string : string -> float
(** ["2.5Gbps"] -> 2.5e9. Accepts bps/Kbps/Mbps/Gbps suffixes,
    case-insensitive. @raise Invalid otherwise. *)

val duration_of_string : string -> float
(** ["45us"] -> 45000 ns. Accepts ns/us/ms/s. @raise Invalid. *)

val pp : Format.formatter -> t -> unit
