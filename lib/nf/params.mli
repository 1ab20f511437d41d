(** NF parameters, e.g. [ACL(rules=[{'dst_ip':'10.0.0.0/8','drop':False}])].

    A small JSON-like value type shared by the spec parser, the Placer
    (which reads sizes like rule counts to predict cycle costs) and the
    meta-compiler (which emits the values into generated code). *)

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | List of value list
  | Dict of (string * value) list
  | Ref of string
      (** reference to a macro definition; the spec loader resolves
          these — none survive elaboration *)

type t = (string * value) list
(** Named arguments, in declaration order. *)

val empty : t
val find : t -> string -> value option
val find_int : t -> string -> int option
(** Accepts [Int]; [None] otherwise. *)

val find_str : t -> string -> string option

exception Invalid_size of { key : string; value : int }
(** Raised by {!table_size} when a size parameter is given as a
    negative integer count. *)

val table_size : Kind.t -> t -> int option
(** Size driving a size-dependent cycle cost: ACL -> length of [rules]
    (or [rules] as an int count), NAT -> [entries], Monitor -> [flows].
    [None] when the NF has no size parameter or none was given.
    @raise Invalid_size on a negative integer count. *)

val pp_value : Format.formatter -> value -> unit
(** Python-literal style, as in the paper's spec examples (['...'],
    [True]/[False]). *)

val pp : Format.formatter -> t -> unit
(** [k1=v1, k2=v2]. *)
