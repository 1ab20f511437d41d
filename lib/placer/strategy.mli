(** Placement strategies (§3.2 and §5.1 "Comparison").

    - [Lemur]: the fast heuristic — greedy switch placement with
      cheapest-NF eviction to fit stages, subgroup coalescing
      (strict/aggressive/conservative variants), SLO-driven core
      allocation, rate LP; best of the three variants wins.
    - [Optimal]: brute-force search — enumerate per-chain patterns and
      core budgets, prune dominated configurations, rank joint
      combinations by LP objective, and accept the first that the PISA
      compiler fits (§3.2 "Brute-force Placement").
    - [Hw_preferred]: as many NFs as possible on accelerators; spare
      cores spread evenly; no stage-overflow recovery.
    - [Sw_preferred]: every NF with a software implementation on the
      server (kernel-bypass style deployments).
    - [Min_bounce]: per chain, the pattern minimizing switch<->server
      bounces (E2's Kernighan-Lin objective), ties broken toward
      hardware.
    - [Greedy]: HW-preferred placement, then profile-driven cores to
      meet each chain's t_min, then spare cores by chain index.
    - [No_profiling], [No_core_alloc]: the Fig 2f ablations of Lemur. *)

type t =
  | Lemur
  | Optimal
  | Hw_preferred
  | Sw_preferred
  | Min_bounce
  | Greedy
  | No_profiling
  | No_core_alloc

val all : t list
val name : t -> string

type chain_report = {
  plan : Plan.plan;
  cores : int array;  (** per subgroup *)
  seg_server : (int * string) list;
  capacity : float;  (** estimated chain capacity (bit/s) *)
  rate : float;  (** LP-allocated rate (bit/s) *)
  latency : float;  (** worst-path latency (ns) *)
  bounces : int;
}

type placement = {
  strategy : t;
  chain_reports : chain_report list;
  total_rate : float;  (** predicted aggregate throughput (the paper's diamond) *)
  total_marginal : float;
  stages_used : int;
  cores_used : int;
  elapsed : float;
      (** wall time of the whole {!place} (or {!evaluate_plans}) call,
          seconds: every candidate it evaluated, not only the winner *)
}

type outcome = Placed of placement | Infeasible of { reason : string }

val place : t -> Plan.config -> Plan.chain_input list -> outcome

val lemur_variants :
  Plan.config -> Plan.chain_input list -> Plan.plan list list option
(** The heuristic's candidate placements after step 2 — baseline,
    aggressive and conservative coalescings plus the software-seeded
    and bounce-light variants when they exist, each set of locations
    once — or [None] when no switch-feasible baseline exists.

    Results are served from the {e variant cache}, the placer's one
    result cache: variant construction is a deterministic function of
    (config content, per-chain graph content, per-chain [t_min]) — the
    SLO's [t_max]/[d_max] are only read downstream in finalize — so the
    elaborated plans are stored under a structural key ({!Memo}), and a
    hit re-binds each plan's [input] to the caller's current input with
    a fresh locs array, byte-identical to recomputation. This is the
    runtime engine's incremental re-placement warm start: demand-only
    events re-use the whole pattern search, while any chain whose graph
    or [t_min] changed misses by key construction. *)

val all_patterns :
  Plan.config -> Plan.chain_input -> limit:int -> Plan.location array list
(** Every assignment of an {!Plan.allowed_locations} platform to each
    NF, in enumeration order; when there are more than [limit], only
    the hardware- and software-preferred corners, single-NF flips of the
    hardware corner, and an eviction ladder toward the server. Every
    pattern places each NF on an allowed platform. Exposed for tests.
    @raise Plan.Invalid_pattern if some NF has no platform. *)

val min_bounce_pattern : Plan.config -> Plan.chain_input -> Plan.plan option
(** The Min Bounce pattern rule: among {!all_patterns} (limit 4096)
    that pass {!Plan.of_order_compatible}, the first minimizing
    [1000 * max_path_bounces - hardware NFs], elaborated. Patterns are
    scored from their location arrays; only the winner is elaborated.
    [None] if every pattern violates the OpenFlow table order. *)

val variant_cache_stats : unit -> int * int
(** Process-lifetime [(hits, misses)] of the variant cache. *)

val clear_variant_cache : unit -> unit
(** Drop the calling domain's cached variant entries and stage verdicts;
    the next placement of any chain set solves and compiles from
    scratch. *)

val evaluate_plans :
  ?policy:Alloc.spare_policy -> t -> Plan.config -> Plan.plan list -> outcome
(** Step 3 in isolation (core allocation + rate LP + stage and latency
    checks) for externally chosen plans — used by the runtime engine's
    move-budgeted hybrid, the coalescing ablation bench and tests.
    Without [policy] it sweeps the spare-core policies [Slo_driven],
    [By_index], [Even] as {!place} does for [Lemur] (a policy repeating
    an earlier one's allocation is skipped), keeping the best feasible
    outcome by marginal (the first on ties), else [Slo_driven]'s reason. *)

val is_feasible : outcome -> bool
