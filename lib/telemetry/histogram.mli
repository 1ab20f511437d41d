(** Fixed-bucket latency histograms with percentile extraction.

    A histogram sorts samples into a fixed array of buckets given by
    strictly increasing upper bounds, plus an implicit overflow bucket;
    recording is O(log buckets). Each [record] boxes the running sum
    and takes a lock, so the dataplane executors buffer their latencies
    and hand them over once per run through [record_many]. The exact
    minimum, maximum and sum are tracked on the side.

    Percentiles use the nearest-rank rule over the cumulative bucket
    counts and report the containing bucket's upper bound, clamped to
    the exact observed maximum — so a percentile never exceeds any real
    sample, the overflow bucket degrades to the true maximum, and a
    single-sample histogram reports that sample exactly. The error is
    bounded by the bucket width (under 78% per sample with the default
    quarter-decade geometric bounds).

    The default bounds target latencies in nanoseconds: 33 geometric
    bounds from 100 ns to 10 s, four per decade. *)

type t

val make : ?bounds:float array -> string -> t
(** An empty histogram. [bounds] must be strictly increasing and
    non-empty. @raise Invalid_argument otherwise. *)

val name : t -> string

val record : t -> float -> unit
(** Add one sample (same unit as the bounds; nanoseconds by default). *)

val record_many : t -> float array -> int -> unit
(** [record_many h xs n] records [xs.(0 .. n-1)] in order under one
    lock: the same state as [n] calls to [record]. The executors buffer
    per-packet latencies and hand them over once per run. *)

val count : t -> int

val sum : t -> float

val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float
(** Exact observed minimum; 0 when empty. *)

val max_value : t -> float
(** Exact observed maximum; 0 when empty. *)

val percentile : t -> float -> float
(** [percentile h p] for [p] in \[0,100\]; 0 when empty (so rendering
    code needs no special case). *)

val bucket_counts : t -> (float * int) list
(** Non-empty buckets only, as [(upper_bound, count)]; the overflow
    bucket reports [infinity] as its bound. *)

val to_json : t -> Json.t
(** [{"name", "count", "sum", "mean", "min", "max", "p50", "p90",
    "p99", "p999", "buckets": [{"le", "count"}, ...]}] — the overflow
    bucket's ["le"] is [null]. *)
