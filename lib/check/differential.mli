(** Differential strategy checking: run one scenario through every
    placement strategy, the MILP and the packet-level simulator, and
    cross-check the results against the {!Oracle} and against each
    other.

    What a correct Lemur must satisfy on every scenario:

    - no strategy crashes, and every artifact compiles for every
      feasible placement (the meta-compiler must accept whatever the
      Placer produces);
    - every feasible placement passes the {!Oracle}, including the
      generated-artifact routing check;
    - the brute-force [Optimal] strategy is never beaten on the LP
      objective by any other strategy (it searches a superset), and
      never reports infeasible when another strategy placed;
    - the Lemur heuristic is not materially worse than the four classic
      baselines (HW Preferred, SW Preferred, Min Bounce, Greedy);
    - on MILP-scoped instances, the MILP objective does not materially
      exceed the search optimum (the MILP is the optimistic model: it
      omits the multi-core LB penalty and uses a conservative static
      stage bound, so it may fall below but should not soar above);
    - executing the accepted Lemur placement on {!Lemur_dataplane.Sim}
      meets each chain's throughput floor — the §5.2 "predictions are
      conservative" property, judged by the throughput half of
      {!Lemur_slo.Slo.verdict} with two batches of measurement
      quantization as its slack (latency is not checked here). Chains
      with [t_min] under
      {!Convergence.sim_floor_threshold} are exempt: at 32-packet batch granularity
      the simulated measurement window is too coarse to resolve them
      (documented in docs/TESTING.md), and the exemption is explicit
      here rather than silent in the data;
    - executing the same placement packet-by-packet on
      {!Lemur_dataplane.Engine} converges to the Sim rate model:
      per-chain throughput within 5 %, engine p99 latency bounded by
      Sim's (structurally inflated) p99 plus 1 ms, and packet
      conservation exact
      (docs/DATAPLANE.md). *)

type failure =
  | Crash of { strategy : string; exn : string }
  | Compile_failed of { strategy : string; reason : string }
  | Oracle_rejected of { strategy : string; violations : Oracle.violation list }
  | Optimality_inversion of { strategy : string; optimal : float; other : float }
  | Feasibility_inversion of { strategy : string }
  | Baseline_gap of { baseline : string; lemur : float; baseline_obj : float }
  | Milp_divergence of { milp : float; search : float }
  | Sim_shortfall of { chain : string; delivered : float; floor : float }
  | Engine_divergence of Convergence.divergence

val pp_failure : Format.formatter -> failure -> unit

type report = {
  scenario : Scenario.t;
  placed : (string * float) list;
      (** feasible strategies with their LP objective (total marginal) *)
  timings : (string * float) list;
      (** feasible strategies with their placement wall time, seconds *)
  infeasible : string list;
  milp_checked : bool;
  sim_checked : bool;
      (** the accepted placement ran on the simulator and, at the same
          rates, on the packet engine *)
  failures : failure list;
}

val run : ?quick:bool -> ?sim:bool -> Scenario.t -> report
(** [quick] (default [true]) shortens the simulated window and executes
    only the Lemur placement; [sim] (default [true]) gates the
    simulator stage entirely, the packet-engine convergence check inside
    it included. *)

val failed : report -> bool
