(** A named NF instance inside a chain: a kind plus parameters.

    Chains may contain several instances of the same kind ([NAT0],
    [NAT1], ...); the name is unique within one chain specification. *)

type t = { name : string; kind : Kind.t; params : Params.t }

val make : ?name:string -> ?params:Params.t -> Kind.t -> t
(** [make kind] defaults the name to {!Kind.name}. *)

val state_size : t -> int option
(** Table/state size from the parameters (see {!Params.table_size}). *)
