(** Binary min-heap keyed by time — Sim's single event queue before it
    split generators from batches, kept for [Sim_ref] and as the order
    Sim's two queues are checked against.

    Equal keys pop in insertion (FIFO) order, so simultaneous events
    are served in the order they were scheduled — the simulators'
    determinism depends on it, not just on the seed. Entries are stored
    flat: [push] allocates nothing once the arrays have grown. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> float -> 'a -> unit

val min_key : 'a t -> float
(** The smallest key. @raise Invalid_argument if empty. *)

val take : 'a t -> 'a
(** Remove and return the value with the smallest key (FIFO among
    equal keys). @raise Invalid_argument if empty. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
