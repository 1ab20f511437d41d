(** Tuple-space search (Srinivasan et al.) — the classic software
    classifier OVS uses, and the remainder-path engine of the computed
    index.

    Rules are grouped into tuples keyed by
    [(src prefix length, dst prefix length, protocol exactness)]; each
    tuple owns a hash table from masked addresses to its candidate
    bucket. Port ranges don't hash, so they are checked linearly inside
    a bucket. Tuples are probed in ascending order of their best
    (lowest) rule id, which lets a lookup stop as soon as its current
    best match outranks everything a remaining tuple could hold. *)

type t

val build : Rule.t array -> t
(** The array need not be a whole ruleset — the computed index builds a
    [Tss.t] over just its remainder rules. *)

val tuples : t -> int

val classify : t -> Rule.header -> Rule.t option * int * int
(** [(match, tuples probed, bucket entries scanned)]. *)
