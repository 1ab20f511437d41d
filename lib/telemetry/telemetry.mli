(** Structured observability for the Placer and the dataplane: spans,
    counters and latency histograms behind one registry.

    The paper's evaluation (§5) reports end-to-end numbers — placement
    wall time, measured throughput, latency percentiles — but nothing
    about {e why} they come out the way they do. This registry collects
    the diagnostics behind those numbers: hierarchical wall-clock
    {!section-spans} (where did placement time go), monotonic
    {!Counter}s (MILP nodes explored, simplex pivots, stage-check
    retries, per-NF packets, drops) and {!Histogram}s (phase timings,
    per-chain delivered latency vs. the SLO).

    {2 Sinks and cost when disabled}

    Instrumentation is compiled in unconditionally and routed through a
    process-wide {e current} sink ({!current} / {!set_current}), which
    defaults to {!disabled}. Against the disabled sink every operation
    is trivially cheap: {!with_span} and {!time} reduce to calling the
    thunk (no clock reads), and {!counter} / {!histogram} hand back
    fresh unregistered instruments whose updates touch only their own
    memory — so the tier-1 benchmarks pay nothing measurable when no
    one asked for telemetry.

    {2 Output}

    A populated registry renders through {!to_json} /
    {!write_json} as the machine-readable dump documented in
    [docs/OBSERVABILITY.md] (schema [lemur.telemetry/1]), which the CLI
    exposes as [--telemetry FILE] and the bench harness as
    [--telemetry-dir DIR]. *)

type t
(** A telemetry registry: interned counters and histograms plus a stack
    of open spans. Domain-safe: interning and completed-span recording
    are mutex-guarded, counters are atomic, and the open-span stack is
    per-domain, so [Lemur_util.Pool] workers can report into the same
    registry. Span {e nesting} is per domain — a worker's spans become
    roots (or children of spans that worker opened), never children of
    another domain's open span. *)

(** {2:spans Spans} *)

type span = {
  span_name : string;
  span_start : float;  (** seconds since the registry was created *)
  span_duration : float;  (** seconds *)
  span_children : span list;  (** completed sub-spans, oldest first *)
}

(** {2 Registries} *)

val create : ?clock:(unit -> float) -> unit -> t
(** A fresh recording registry. [clock] (default [Unix.gettimeofday])
    returns absolute seconds; tests inject a deterministic clock. *)

val disabled : t
(** The no-op sink: never records, never reads the clock. *)

val enabled : t -> bool
(** [false] exactly for {!disabled}. *)

val current : unit -> t
(** The process-wide sink instrumented code reports to. Starts as
    {!disabled}. *)

val set_current : t -> unit

(** {2 Recording} *)

val counter : t -> string -> Counter.t
(** The registry's counter of that name, created on first use. On a
    disabled registry: a fresh unregistered counter. *)

val histogram : t -> ?bounds:float array -> string -> Histogram.t
(** The registry's histogram of that name, created on first use with
    [bounds] (default: {!Histogram}'s 100 ns to 10 s). On a disabled
    registry: a fresh unregistered histogram. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk under a named span. Spans nest: a span opened while
    another is running becomes its child. The span is closed (and
    recorded) even if the thunk raises. Disabled: just runs the thunk. *)

val time : t -> Histogram.t -> (unit -> 'a) -> 'a
(** Run the thunk and record its wall-clock duration in nanoseconds
    into the histogram — the span-free way to time something that runs
    thousands of times (e.g. one simplex phase per branch-and-bound
    node). Disabled: just runs the thunk. *)

(** {2 Reading} *)

val counters : t -> Counter.t list
(** Sorted by name. *)

val histograms : t -> Histogram.t list
(** Sorted by name. *)

val spans : t -> span list
(** Completed top-level spans, oldest first. A span still open (e.g.
    read from inside {!with_span}) is not included. *)

(** {2 Output} *)

val to_json : t -> Json.t
(** The [lemur.telemetry/1] document; see [docs/OBSERVABILITY.md]. *)

val write_json : t -> string -> unit
(** [write_json t path] writes [to_json t] to [path] (pretty-printed,
    trailing newline). *)
