(** Simulated NF profiling (§3.2 "Profiling and Estimated Throughput",
    §5.2 "The stability of profiled cycle costs", Table 4).

    A registry simulates repeated profiling runs of each NF under
    worst-case traffic and records per-run cycles/packet. The Placer
    consumes {!cycles}, the *worst-case* observed cost — the paper picks
    "the worst-case cycle count reported by BESS" — which makes
    predictions conservative (measured rates then come out at or above
    predicted, §5.2).

    Knobs reproduce the paper's ablations: [error] shaves a fraction off
    every estimate (the 1–10 % under-estimation sensitivity experiment);
    [uniform_cycles] replaces all profiles with one constant (the "No
    Profiling" variant of Fig 2f). *)

type traffic_mode =
  | Long_lived  (** 30–50 uniformly distributed long-lived flows *)
  | Short_flows  (** 3.2 Mpps, 10k new flows/s, 1 s lifetime *)

type t

val create : ?seed:int -> ?error:float -> ?uniform_cycles:float option -> unit -> t
(** Each NF is profiled over 500 runs (as in Table 4). [error] in \[0,1) shrinks
    estimates ([0.05] = 5 % under-estimation); [uniform_cycles] (default
    [None]) enables the No-Profiling ablation. *)

val signature : t -> string
(** A canonical string over the registry's defining knobs (seed, error,
    uniform_cycles; it also names the run count). Two registries with equal signatures return
    equal costs for every query — the sample cache is derived state —
    so the signature can stand in for the registry in structural
    memoization keys (see [Lemur_placer.Memo]). *)

val samples :
  t -> Lemur_nf.Kind.t -> Lemur_nf.Datasheet.numa -> ?size:int ->
  traffic_mode -> float list
(** The per-run cycle costs for an NF. Deterministic in the registry
    seed and the arguments (independent of call order). Short-flow
    traffic widens the spread of stateful NFs. *)

val summary :
  t -> Lemur_nf.Kind.t -> Lemur_nf.Datasheet.numa -> ?size:int ->
  traffic_mode -> Lemur_util.Stats.summary
(** Summary across both traffic modes' worst mode — what Table 4
    reports. *)

val cycles : t -> Lemur_nf.Instance.t -> Lemur_nf.Datasheet.numa -> float
(** Worst-case cycles/packet for this instance (max over runs and
    traffic modes, at the instance's declared state size), scaled down
    by the registry's [error]. This is the number the Placer uses.

    Memoized per registry: the first query for a (kind, NUMA, size)
    folds the sample lists once and stores the float; later queries are
    a table lookup on three ints, with no string formatting and no walk
    over the samples. The stored value is the same float the fold
    returns, so memoization never changes a result.

    Domain-safe: a registry may be shared by every domain holding its
    config (e.g. [Pool.map] workers of one placement). Every profiler
    table — samples, worst-case costs, {!acl_cycles} — is read and
    written under the registry's lock, and misses are computed outside
    it, so concurrent callers get the same floats as a sequential run. *)

val cycles_kind : t -> Lemur_nf.Kind.t -> Lemur_nf.Datasheet.numa -> float
(** {!cycles} at the kind's reference state size. *)

val acl_cycles :
  t -> algo:Lemur_classifier.Classifier.algo -> size:int ->
  Lemur_nf.Datasheet.numa -> float
(** Worst-case cycles/packet of an ACL that actually classifies with
    the given algorithm at the given ruleset size: the canonical
    ruleset's worst modeled lookup over the dataplane's 40-flow header
    corpus, NUMA-scaled, shaved by [error], overridden by
    [uniform_cycles] — so the ablation knobs hit classifier-aware
    predictions exactly like datasheet ones. Deterministic and
    memoized; a pure function of {!signature} and the arguments. *)

val size_ladder : Lemur_nf.Kind.t -> int list
(** The state sizes {!fit_size_model} profiles at: 1/4 to 2x the kind's
    reference size. Empty for kinds without one. *)

val fit_size_model :
  t -> Lemur_nf.Kind.t -> Lemur_nf.Datasheet.numa -> (float * float) option
(** Least-squares (slope, intercept) of mean cycles vs state size, from
    profiling runs at a ladder of sizes — the paper's "we profile cycle
    counts for different sizes and use a linear model to predict the
    processing costs". [None] for size-independent NFs. *)

val predict_cycles :
  t -> Lemur_nf.Kind.t -> Lemur_nf.Datasheet.numa -> size:int -> float option
(** Mean-cost prediction from the fitted linear model. *)

val table4 : t -> (string * string * Lemur_util.Stats.summary) list
(** Rows of Table 4: (NF label, NUMA label, cycle statistics) for
    Encrypt, Dedup, ACL(1024), NAT(12000) x {Same, Diff}. *)

val stability_bound : t -> float
(** max over NFs of (worst - mean)/mean — the paper reports this is
    within 6.5 %. *)
