(** Unified P4 program synthesis (§4.2, §A.2).

    Takes the placement's switch projections, merges the NF-local
    parsers, instantiates each NF's library template (name-mangled per
    instance), and generates the glue the meta-compiler owns: metadata,
    NSH encap/decap, the shared first-stage steering table with its
    service-path entries, branch traffic-split tables, and the control
    flow that applies tables in dependency order with branch-exclusive
    condition checks.

    Every emitted line is attributed to the NF {e library} or to
    {e generated} glue so the §5.3 "fraction auto-generated" experiment
    can be reproduced; steering entries are counted separately. *)

type stats = {
  total_lines : int;
  library_lines : int;  (** NF template bodies *)
  generated_lines : int;  (** parser, steering, NSH, control flow *)
  steering_lines : int;  (** subset of generated: steering entries *)
}

type program = {
  source : string;
      (** the P4 program text. It is the deployment: its steering
          entries are what {!Routing_check} and the oracle walk. *)
  stats : stats;
}

val generate :
  Lemur_placer.Plan.config -> Spi.t -> Lemur_placer.Plan.plan list -> program
(** @raise Lemur_p4.Pipeline.Parser_conflict when NF parsers conflict
    (Placer should have rejected such placements already). *)
