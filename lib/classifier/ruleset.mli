(** Deterministic ClassBench-style synthetic rulesets.

    [generate] draws [size] prefix/range rules over the 5-tuple from
    {!Lemur_util.Prng}: address prefixes come from small shared pools
    (so rules overlap and nest the way real ACLs do), port fields mix
    wildcards, well-known exact ports and ranges, and protocols are
    mostly exact TCP/UDP/ICMP. Equal [(seed, size)] give equal
    rulesets, so every layer — profiler, placer, simulator, engine —
    rebuilds the identical ruleset from the pair alone.

    [header_of_flow] is the matching deterministic traffic model: ~70%
    of flows aim inside some rule's hyperrectangle (possibly shadowed
    by a higher-priority rule), the rest are uniform — so both hit and
    no-match paths get exercised. The dataplane uses flows 0..39, the
    same ids the engine already spreads packets over. *)

type t

val default_seed : int

val generate : ?seed:int -> size:int -> unit -> t
(** [size] rules, deterministic in [(seed, size)].
    @raise Invalid_argument if [size < 0]. *)

val size : t -> int
val rules : t -> Rule.t array
(** In priority order; [(rules t).(i).id = i]. *)

val header_of_flow : t -> int -> Rule.header
(** Deterministic header for a flow id (any non-negative int). *)

val headers : t -> flows:int -> Rule.header array
(** [header_of_flow] tabulated for flows [0 .. flows-1]. *)
