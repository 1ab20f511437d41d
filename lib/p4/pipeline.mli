(** Unified-pipeline construction (§A.2.2) and the resource-aware
    optimizations of §4.2.

    Input: for every chain, the projection of its NF-graph onto the
    switch — the NFs the Placer assigned to the PISA switch and the
    (projected) order between them, where two switch NFs separated only
    by server-placed NFs are connected directly (the steering logic
    brings packets back in between). Output: the table-dependency graph
    the {!Stagepack} compiler packs, plus the merged header parser for
    conflict detection.

    The [`Optimized] mode implements the four stage-saving assertions of
    §4.2: (a) no NSH tables for all-switch chains; (b) SI updated once
    per sequential run (folded into the encap table) instead of per-NF;
    (c) return steering folded into the shared first-stage steering
    table; (d) parallel branch arms depend only on the split table, so
    the compiler may pack them into the same stages. The [`Naive] mode
    is the topological-sort strawman: separate NSH-init and
    return-steering tables and a per-NF SI-update table. *)

type nf_node = {
  nf_id : string;  (** unique across all chains *)
  kind : Lemur_nf.Kind.t;
}

type chain_projection = {
  chain_id : string;
  nf_nodes : nf_node list;
  nf_edges : (string * string) list;
      (** projected successor pairs among switch NFs *)
  entry_nfs : string list;  (** switch NFs with no projected predecessor *)
  crosses_platform : bool;
      (** chain has NFs on other platforms (needs NSH + steering) *)
}

type mode = Optimized | Naive

exception Parser_conflict of string

val table_graph : mode:mode -> chain_projection list -> Tablegraph.t
(** Assemble the unified table-dependency graph. *)

val unified_parser : chain_projection list -> Parsetree.t
(** Merge all NF-local parsers (plus the NSH fragment when some chain
    crosses platforms). @raise Parser_conflict when two NFs cannot agree
    (paper: such placements are rejected). *)
