(** NuevoMatch-style computed index: RMI-indexed iSets plus a TSS
    remainder.

    Construction repeatedly extracts an {e iSet} — a maximal set of
    rules whose projections onto one chosen dimension are pairwise
    disjoint intervals (greedy interval scheduling, best dimension
    wins) — and indexes each iSet with a {!Rmi} over the interval left
    endpoints. Disjointness means a lookup key has at most one
    candidate interval per iSet: predict, search the bounded window,
    validate the full 5-tuple. Rules too overlapping to join any iSet
    form the {e remainder}, classified by {!Tss}; a lookup skips the
    remainder probe whenever its current best match already outranks
    every remainder rule. *)

type dim = Dsrc | Ddst | Dsport | Ddport

type outcome = {
  rule : Rule.t option;
  validations : int;  (** full 5-tuple checks after index probes *)
  search_steps : int;  (** binary-search steps across all iSets *)
  remainder_probed : bool;
  remainder_entries : int;  (** TSS work done on the remainder, if probed *)
  remainder_won : bool;  (** the final match came from the remainder *)
}

type t

val build : Ruleset.t -> t
(** Greedily partitions the rules into at most 8 iSets; the rest form
    the remainder. *)

val isets : t -> int
val iset_sizes : t -> int list
val remainder_rules : t -> Rule.t array

val remainder_tuples : t -> int
(** TSS tuples in the remainder — the work upper bound a remainder
    probe is charged for. *)

val max_model_error : t -> int
(** Worst per-leaf RMI bound across iSets. *)

val classify : t -> Rule.header -> outcome

val corrupt_remainder_for_test : t -> (t * Rule.t) option
(** Test hook for the mutation suite: silently drop the
    highest-priority remainder rule, returning the corrupted classifier
    and the dropped rule ([None] when the remainder is empty). A
    correct agreement gate must catch the resulting misclassification —
    never call this outside tests. *)
