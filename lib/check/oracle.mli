(** Independent re-verification of placements — the testing oracle.

    The Placer, the strategies and the rate LP share a lot of code; a
    bug in any shared layer could produce placements that look
    self-consistent but violate the paper's constraints. This oracle
    re-derives every constraint from first principles — the chain
    graphs, the profiler, the cost model (§3.2, §5.3) and the topology —
    and checks a {!Lemur_placer.Strategy.placement} against them:

    - the pattern is legal and re-elaborates to the reported subgroup
      structure;
    - the switch projection fits the PISA stage budget under the real
      compiler ({!Lemur_placer.Stagecheck}), and the reported stage
      count matches;
    - every subgroup has a core, non-replicable NFs are not replicated,
      every server segment is assigned to a real server, and no server's
      NF cores are over-committed;
    - the reported chain capacity does not exceed an independently
      derived estimate (profiled cycles + NSH and load-balancing
      overheads), and the allocated rate respects capacity, the ToR port
      rate, [t_min], [t_max] and [d_max];
    - re-derived per-link loads (walking every linearized path the way
      the ToR forwards it) keep each ToR<->device link within its
      serialization capacity;
    - the placement's aggregate numbers are consistent with its chain
      reports;
    - when the compiled artifact is given, the generated steering
      entries route every service path correctly
      ({!Lemur_codegen.Routing_check}).

    Deliberately slow and redundant: correctness over speed. *)

open Lemur_placer

type violation =
  | Invalid_plan of { chain : string; reason : string }
  | Stage_overflow of { needed : int; budget : int }
  | Parser_conflict of { reason : string }
  | Stage_report_mismatch of { reported : int; recomputed : int }
  | Core_missing of { chain : string; subgroup : int }
  | Nonreplicable_replicated of { chain : string; subgroup : int; cores : int }
  | Segment_unassigned of { chain : string; segment : int }
  | Unknown_server of { chain : string; server : string }
  | Core_overallocation of { server : string; used : int; available : int }
  | Capacity_overstated of { chain : string; reported : float; derived : float }
  | Rate_above_capacity of { chain : string; rate : float; capacity : float }
  | Link_oversubscribed of { link : string; load : float; capacity : float }
  | Tmin_violated of { chain : string; rate : float; t_min : float }
  | Tmax_violated of { chain : string; rate : float; t_max : float }
  | Latency_violated of { chain : string; latency : float; d_max : float }
  | Totals_inconsistent of { what : string; reported : float; derived : float }
  | Routing_mismatch of { reason : string }

val kind_name : violation -> string
(** Stable constructor name, e.g. ["stage_overflow"] — used by tests to
    assert that a mutation is rejected with the expected diagnostic. *)

val pp_violation : Format.formatter -> violation -> unit

val check :
  ?artifact:Lemur_codegen.Codegen.artifact ->
  Plan.config ->
  Strategy.placement ->
  (unit, violation list) result
(** Every violation found, in a stable order (structure, stages, cores,
    capacity/SLOs, links, totals, routing). [Ok ()] means the placement
    satisfies all the paper's constraints as independently re-derived. *)

val check_deployment : Lemur.Deployment.t -> (unit, violation list) result
(** {!check} on the deployment's placement. Its artifact is not
    re-verified: {!Lemur.Deployment.t} is private, and
    {!Lemur.Deployment.of_placement} already ran the same routing check
    on the same inputs. *)
