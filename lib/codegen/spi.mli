(** Service-path (SPI/SI) assignment (§4.1).

    Each linear entry-to-exit path of a chain is a service path and gets
    a unique SPI across the whole deployment; the SI counts down from
    the path length as NFs execute. To minimize encap/decap overhead the
    meta-compiler only rewrites NSH at platform boundaries: a node's SI
    is its position from the end of its path. *)

type t

val assign : Lemur_placer.Plan.plan list -> t
(** SPIs are dense, deterministic, and ordered by (chain, path). *)

type path_info = {
  spi : int;
  chain_id : string;
  nodes : Lemur_spec.Graph.node_id list;
      (** entry-to-exit order. The node at index [i] has SI
          [List.length nodes - i]: the number of NFs left to execute,
          including it. *)
  fraction : float;
}

val paths : t -> path_info list

val spi_count : t -> int

val paths_of_chain : t -> string -> path_info list
