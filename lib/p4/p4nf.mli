(** The library of standalone P4 NF implementations (§4.2).

    Each P4-capable NF kind ships a parse tree (over the predefined
    header library) and a list of match/action tables; consecutive
    tables of one NF are dependent (NAT's translation table feeds its
    port-state table). The meta-compiler merges parse trees and
    assembles tables into the unified pipeline ({!Pipeline}). *)

val supports : Lemur_nf.Kind.t -> bool
(** Whether a P4 implementation exists (Table 3). *)

val parse_tree : Lemur_nf.Kind.t -> Parsetree.t
(** NF-local parser. @raise Invalid_argument when not {!supports}. *)

val nsh_parse_tree : Parsetree.t
(** Parser fragment recognizing NSH-encapsulated traffic, merged in
    whenever a chain crosses platforms. *)

val tables : nf_id:string -> Lemur_nf.Kind.t -> Tablegraph.table list
(** The NF's tables, name-mangled with [nf_id] (tables are returned in
    execution order; the caller adds the sequential dependencies).
    @raise Invalid_argument when not {!supports}. *)
