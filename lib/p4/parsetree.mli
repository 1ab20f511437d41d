(** NF-local header parsers and the parser-merge algorithm (§A.2.1).

    A parse tree is an ordered tree of parsing states rooted (usually)
    at [ethernet]. Each state names a header and transitions on a select
    field's value to next headers; [None] is the default transition.

    The meta-compiler unifies the NF-local parsers of all P4 NFs placed
    on the switch by merging trees: for each state, the union of the
    transitions is taken; two NFs conflict — and cannot be co-located on
    the switch — if the same (state, select value) leads to different
    next headers. *)

type transition = {
  select_value : int option;  (** [None] = default transition *)
  next : string;  (** next header name *)
}

type state = {
  header : string;
  select_field : string option;
      (** field examined to pick the transition; [None] when the state
          only has a default transition or is a leaf *)
  transitions : transition list;
}

type t = { root : string; states : state list }

exception Conflict of string
(** Raised by {!merge} when the same (header, select value) maps to
    different next headers, or the same header selects on different
    fields. *)

val leaf : string -> t
(** A parser that accepts just one header. *)

val make : root:string -> state list -> t
(** @raise Invalid_argument if a transition references a state-less
    header that is not a leaf... any referenced header lacking a state
    is treated as a leaf, so this only validates duplicates. *)

val find_state : t -> string -> state option

val merge : t -> t -> t
(** Union of two parse trees (§A.2.1). @raise Conflict. *)

val merge_all : t list -> t
(** Fold of {!merge}; @raise Invalid_argument on an empty list. *)

val headers : t -> string list
(** All header names reachable in the tree (root first, unique). *)

val depth : t -> int
(** Longest root-to-leaf chain, in states. *)

val equal : t -> t -> bool
(** Structural equality up to state and transition order. *)
