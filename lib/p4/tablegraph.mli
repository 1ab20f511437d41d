(** Match/action tables and their dependency DAG — what the Tofino
    compiler actually packs into pipeline stages.

    Each table carries the name of the NF (or infrastructure role) that
    owns it; a dependency edge (a, b) means table [b] matches on or is
    control-dependent on state produced by table [a], so [b] must be
    placed in a strictly later stage (§4.2 fact (2)). Fact (1) — no
    table revisited — holds by construction since the graph is a DAG
    evaluated front to back. *)

type table = {
  table_name : string;
  owner : string;  (** owning NF instance or "steering"/"nsh" etc. *)
  match_fields : string list;
  action : string;
}

type t

val create : unit -> t

val add_table : t -> table -> unit
(** @raise Invalid_argument on duplicate table names. *)

val add_dep : t -> before:string -> after:string -> unit
(** @raise Invalid_argument on unknown table names or self-dependency. *)

val tables : t -> table list
(** In insertion order. *)

val deps : t -> (string * string) list
val table_count : t -> int

val predecessors : t -> string -> string list
val has_cycle : t -> bool

val critical_path : t -> int
(** Length (in tables) of the longest dependency chain — a lower bound
    on stages. *)
