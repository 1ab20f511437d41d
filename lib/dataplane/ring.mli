(** Fixed-capacity single-producer/single-consumer ring of packet
    handles — the engine's link primitive (snabb's [core.link]).

    A ring never grows: [push] on a full ring refuses the handle and
    the caller decides what dropping means (the engine frees the packet
    back to its pool and charges the destination element's drop
    counter). Head and tail are slot positions kept inside
    [\[0, capacity)]: each step wraps back to slot 0 by a compare, so
    no operation divides, whatever the capacity. Beside them the ring
    keeps monotonic pushed/popped counters, which give the length and
    the total tallies; [pushed t - popped t = length t] is an
    invariant test hooks rely on.

    Slots hold plain [int]s ({!Packet.t} handles), so no operation
    allocates or goes through the GC write barrier, and [take]/[top]
    report an empty ring with the {!none} sentinel instead of an
    option.

    The engine is single-threaded over virtual time, so no memory
    fences are needed; the SPSC discipline (one pushing element, one
    pulling worker per ring) is what keeps FIFO order meaningful. *)

type t

val none : int
(** [-1]: what [take] and [top] return on an empty ring. Handles are
    non-negative, so it never collides with a queued one. *)

val create : capacity:int -> t
(** A ring holding at most [capacity] handles.
    @raise Invalid_argument if [capacity < 1]. *)

val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val push : t -> int -> bool
(** [false] iff the ring is full (the handle was not enqueued). *)

val take : t -> int
(** Remove and return the oldest handle (FIFO), or {!none} if empty. *)

val top : t -> int
(** The handle [take] would return, without removing it; {!none} if
    empty. *)

val iter : (int -> unit) -> t -> unit
(** Visit queued handles oldest-first without consuming them — the
    engine's end-of-run in-flight accounting. *)

val pushed : t -> int
(** Total handles ever accepted by [push]. *)

val popped : t -> int
(** Total handles ever removed by [take]. *)
