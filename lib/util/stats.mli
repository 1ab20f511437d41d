(** Small descriptive-statistics helpers used by the profiler and the
    benchmark harness. *)

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on an empty list or any NaN element
    (NaN would otherwise poison the aggregates silently). *)

val mean : float list -> float
(** Raises [Invalid_argument] on an empty list or any NaN element. *)

val clamp : lo:float -> hi:float -> float -> float

val linear_fit : (float * float) list -> float * float
(** Least-squares line [(slope, intercept)] through the points. Requires
    at least two points with distinct x. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in \[0,100\] (nearest-rank on the sorted
    data). Raises [Invalid_argument] on an empty list, a NaN element
    (which would make the sort order-dependent), or [p] outside
    \[0,100\]. *)

val sort_floats : float array -> int -> unit
(** [sort_floats xs n] sorts [xs.(0 .. n-1)] ascending in place without
    allocating. The executors sort their latency samples with it once
    per run. Elements must not be NaN. *)

val percentile_sorted : float -> float array -> int -> float
(** [percentile_sorted p xs n] is [percentile p] of the ascending
    prefix [xs.(0 .. n-1)], by the same nearest-rank rule. Raises
    [Invalid_argument] if [n < 1] or [p] is outside \[0,100\]. *)

val tail_summary : float array -> int -> float * float * float * float
(** [tail_summary xs n] is [(mean, p50, p99, max)] of the non-negative
    samples [xs.(0 .. n-1)], all [0.] when [n = 0]: the executors'
    per-chain latency report. The mean sums in array order, then the
    prefix is sorted in place for the nearest-rank percentiles. *)
