(** Structural identity of placer inputs: the keys of the variant cache
    ({!Strategy.lemur_variants}), of the stage verdict table, and of the
    canonical placement renderings the cache-soundness checks compare.

    {!config_sig} digests the {e content} of a {!Plan.config} —
    topology records field by field, profiler signature, packet size,
    capability mode, NUMA and steering flags, classifier. {!chain_sig}
    digests the chain id and the full NF-graph content (instances with
    parameters, edges with weights and conditions). Two structurally
    identical subproblems therefore share a key no matter which
    scenario, fuzz seed, or [{ config with ... }] copy produced them.
    Signatures deliberately exclude SLOs.

    Configs and graphs are immutable, so each record's digest is
    computed once and then found by physical identity in a small
    bounded list ({e the signature caches}). The lists are
    domain-local ([Domain.DLS]); the {!stats} and {!evictions} totals
    are atomic and process-wide across all domains. *)

val clear : unit -> unit
(** Empty the calling domain's signature caches. *)

val stats : unit -> int * int
(** Process-lifetime [(hits, misses)] of the signature caches across all
    domains: one lookup per {!config_sig} call and per graph digested
    by {!chain_sig}. *)

val evictions : unit -> int
(** Process-lifetime count of entries the signature caches dropped to
    stay within their bounds. *)

val config_sig : Plan.config -> string
(** Hex digest of the config content (cached per physical record). *)

val chain_sig : Plan.chain_input -> string
(** [<chain-id>#<graph-digest>] — the chain's structural identity,
    independent of its SLO (graph digests cached per physical graph). *)

val plan_sig : Plan.plan -> string
(** [{!chain_sig}:<locs>] where [<locs>] spells each NF's location as
    one character ([s]erver, s[w]itch, smart[n]ic, [o]fswitch). *)
