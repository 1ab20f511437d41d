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

val linear_fit : (float * float) list -> float * float
(** Least-squares line [(slope, intercept)] through the points. Requires
    at least two points with distinct x. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in \[0,100\]: the nearest rank on the
    sorted data, found by selection. Raises [Invalid_argument] on an
    empty list, a NaN element (which would make the ranks
    order-dependent), or [p] outside \[0,100\]. *)

val tail_summary : float array -> int -> float * float * float * float
(** [tail_summary xs n] is [(mean, p50, p99, max)] of the non-negative
    samples [xs.(0 .. n-1)], all [0.] when [n = 0]: the executors'
    per-chain latency report. The mean sums in array order. The
    nearest-rank percentiles equal a sort's but come from quickselect,
    which reorders the prefix in place: expected linear time, O(n log n)
    at worst. Samples must not be NaN. *)
