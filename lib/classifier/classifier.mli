(** One interface over the three classifiers, with the per-packet cycle
    cost model the dataplane charges and the placer predicts.

    Modeled cycles are a deterministic function of the lookup's actual
    work (rules scanned, tuples probed, model evaluations, search
    steps, validations — constants tabulated in docs/CLASSIFIER.md), so
    engine, simulator and profiler all price the same lookup
    identically, and digests over costs stay byte-stable at any [-j].

    [classify] also ticks global statistics and (when a telemetry
    registry is active at [build] time) per-algorithm packet counters,
    remainder hit/miss counters and a probe-depth histogram. [cost] is
    the silent variant for modeling paths — profiler and simulator
    means must not pollute execution telemetry. *)

type algo = Linear_scan | Tuple_space | Computed

val all_algos : algo list
val algo_name : algo -> string
(** ["linear"], ["tss"], ["nuevo"]. *)

type outcome = {
  o_rule : Rule.t option;
  o_cycles : float;  (** modeled cycles for this lookup *)
  o_depth : int;
      (** probe depth: rules scanned (linear), tuples probed (TSS),
          search steps + validations (computed) *)
  o_remainder : [ `Hit | `Miss | `Skipped ];
      (** computed index only: did the remainder probe run, and did it
          produce the winner; always [`Skipped] for the baselines *)
}

type t

val build : algo -> Ruleset.t -> t
val algo : t -> algo
val ruleset : t -> Ruleset.t

val classify : t -> Rule.header -> outcome
(** Lookup + stats + telemetry. *)

val cost : t -> Rule.header -> outcome
(** Same result as {!classify}, no stats or telemetry — for cost
    modeling. *)

val mean_cycles : t -> Rule.header array -> float
(** Mean modeled cycles over a header corpus (0 on an empty corpus). *)

val worst_cycles : t -> Rule.header array -> float
(** Max modeled cycles over a header corpus. *)

val describe : t -> string
(** One line of structure: rules, tuples / iSets + remainder + model
    error, depending on the algorithm. *)

(** Global (atomic, cross-domain) execution statistics, read as deltas
    by the fuzz summary. Only {!classify} moves them. *)
type stats = {
  linear_lookups : int;
  tss_lookups : int;
  computed_lookups : int;
  remainder_hits : int;  (** computed lookups the remainder won *)
  remainder_misses : int;  (** remainder probed but outranked *)
}

val stats : unit -> stats
val pp_stats_delta : Format.formatter -> stats * stats -> unit
(** [(before, after)] — prints nothing when no lookups happened. *)
