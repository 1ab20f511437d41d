(** Compiler-in-the-loop switch feasibility (§3.2).

    Today's PISA toolchains expose no cheap API to predict stage usage,
    so Lemur builds the unified pipeline for a candidate placement and
    invokes the (simulated) Tofino compiler. A placement fits when the
    packed stage count is within the switch budget and the NF-local
    parsers merge without conflict. *)

type verdict =
  | Fits of int  (** packed stages used *)
  | Overflow of int  (** packed stages needed, > budget *)
  | Conflict of string  (** parser merge conflict *)

val check : Plan.config -> Plan.plan list -> verdict

val movable_switch_nodes :
  Plan.config -> Plan.plan -> (Lemur_spec.Graph.node_id * float) list
(** Switch-placed NFs that also have a server implementation, paired
    with their profiled cycle cost — the heuristic's eviction
    candidates, cheapest first. *)
