(** Preallocated packet buffers with a freelist (snabb's
    [core.packet]).

    A packet is an [int] handle into a pool whose fields are stored
    column-wise, one array per field. The pool is carved up front;
    every injected packet is taken off its freelist and returned on
    delivery or drop, so packet buffers are never allocated after
    [create_pool], and the float fields live in unboxed float arrays
    that the engine updates without allocating. Exhaustion is a
    first-class outcome — the engine checks [available] before [take]
    and counts an empty pool as an ingress drop — so a leak shows up as
    sustained [in_flight] instead of unbounded memory.

    [capacity pool - available pool = in_flight pool] always holds;
    the conservation test cross-checks it against the per-chain
    injected/delivered/dropped tallies. *)

type t = int
(** A packet handle: an index into the pool's field arrays. *)

type pool = private {
  chain : int array;  (** index into the engine's chain table *)
  route : int array;  (** which service path the packet took *)
  step : int array;  (** next hop index on that path *)
  flow : int array;
      (** flow id: flow-consistent replica choice, and the index of the
          5-tuple header classifier elements match on *)
  bits : float array;  (** wire size *)
  t_ingress : float array;  (** virtual ns at generation *)
  time : float array;  (** current virtual timestamp (ns) *)
  free : int array;  (** freelist: [free.(0 .. n_free-1)] are available *)
  mutable n_free : int;
}

val create_pool : capacity:int -> pool
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : pool -> int
val available : pool -> int

val in_flight : pool -> int
(** Packets currently taken: [capacity - available]. *)

val take : pool -> t
(** A handle off the freelist. Its fields hold whatever its last user
    left; the caller sets every field it reads.
    @raise Invalid_argument if the pool is exhausted ([available = 0]). *)

val free : pool -> t -> unit
(** Return a packet to the freelist. The engine guarantees each packet
    is freed exactly once (delivery and drop are the only exits).
    @raise Invalid_argument if the pool is already full. *)
