(** The NF-graph: Lemur's intermediate representation of one NF chain
    (§4). Nodes are NF instances, edges carry branch conditions and
    traffic-split weights. The graph is a single-entry DAG; merges and
    multi-exit chains are permitted.

    The Placer consumes the {!linearize} decomposition ("we decompose
    such chains into linear chains", §3.2), each linear path annotated
    with its traffic fraction. *)

type node_id = int

type node = { id : node_id; instance : Lemur_nf.Instance.t }

type edge = {
  src : node_id;
  dst : node_id;
  conds : (string * Lemur_nf.Params.value) list;
  weight : float;  (** fraction of [src]'s traffic taking this edge *)
}

type t

exception Invalid of string

val of_pipeline :
  ?name:string ->
  ?decls:(string * Lemur_nf.Instance.t) list ->
  Ast.pipeline ->
  t
(** Build a graph from a parsed pipeline, resolving atom names first
    against [decls], then as NF kind names. Unweighted branch arms split
    the remaining weight uniformly.
    @raise Invalid on unknown NF names, empty pipelines, or arm weights
    summing to more than 1. *)

val name : t -> string
val nodes : t -> node list
(** In creation order (a valid topological order). *)

val edges : t -> edge list
val entry : t -> node_id
val exits : t -> node_id list
val node : t -> node_id -> node
val successors : t -> node_id -> edge list
val predecessors : t -> node_id -> edge list
val size : t -> int
(** Number of NF instances. *)

val is_branch : t -> node_id -> bool
(** Node with >1 outgoing edge. *)

val is_merge : t -> node_id -> bool
(** Node with >1 incoming edge. *)

type path = { path_nodes : node_id list; fraction : float }
(** One entry-to-exit linear chain and the fraction of the chain's
    traffic following it. *)

val linearize : t -> path list
(** All entry-to-exit paths. Fractions are products of edge weights and
    sum to 1 (within rounding). *)

val pp : Format.formatter -> t -> unit
