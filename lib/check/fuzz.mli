(** The fuzzing loop: generate scenarios from consecutive seeds, run
    the {!Differential} checks on each, shrink any failure to a minimal
    reproducer, and summarize.

    Failures are reported with the scenario's seed, so
    [lemur fuzz --seed N --count 1] replays any of them exactly;
    progress and outcome counts go to the current
    {!Lemur_telemetry.Telemetry} registry under [fuzz.*]. *)

type failure_report = {
  fr_seed : int;
  fr_report : Differential.report;
  fr_shrunk : Scenario.t option;
      (** minimal still-failing scenario, when shrinking was on *)
}

type summary = {
  scenarios : int;
  placements_checked : int;  (** feasible (strategy, scenario) pairs *)
  all_infeasible : int;  (** scenarios no strategy could place *)
  milp_checked : int;
  sim_checked : int;
      (** scenarios whose accepted placement ran on the simulator and,
          at the same rates, on the packet engine, held to
          {!Convergence} tolerances *)
  strategy_times : (string * float) list;
      (** total placement wall time per strategy (seconds), sorted by
          strategy name — the fuzzing loop doubles as a perf canary *)
  cache_hits : int;
      (** placer variant-cache hits during this run
          ({!Lemur_placer.Strategy.variant_cache_stats}) *)
  cache_misses : int;
  classifier : Lemur_classifier.Classifier.stats;
      (** classifier lookups performed by the run's engine checks
          (scenarios with [sc_acl] set) — like the cache counters,
          excluded from the digest *)
  failures : failure_report list;
  digest : string;
      (** MD5 over the deterministic per-scenario outcomes in seed
          order (placements + objectives, infeasibilities, cross-check
          coverage, failures) — wall-clock and cache counters excluded.
          For a given [seed]/[count]/[quick]/[sim]/[max_failures], the
          digest is byte-identical for every [jobs] value. *)
}

val run :
  ?quick:bool ->
  ?sim:bool ->
  ?shrink:bool ->
  ?max_failures:int ->
  ?jobs:int ->
  seed:int ->
  count:int ->
  unit ->
  summary
(** Scenarios are generated from seeds [seed .. seed+count-1]. The loop
    stops early once [max_failures] (default 5) scenarios have failed.
    [quick] and [sim] are passed to {!Differential.run}; [shrink]
    (default [false]) minimizes each failing scenario with
    {!Scenario.shrink} (re-running the differential, so it costs many
    extra placements; shrinking always runs sequentially). [jobs]
    (default 1) fans scenarios out across that many
    {!Lemur_util.Pool} domains; results are folded back in seed order,
    so the summary — including which scenarios ran under the
    [max_failures] cutoff and the {!summary.digest} — does not depend
    on [jobs]. *)

val ok : summary -> bool

val pp_summary : Format.formatter -> summary -> unit
(** Human-readable outcome: per-failure seed, findings and (when
    shrunk) the minimal scenario, then the aggregate counts. *)
