(** The predefined P4 header library (§4.2 "Defining standalone P4
    NFs"): NF developers list the headers they use by name; the
    meta-compiler resolves layouts from this library when generating the
    unified program. The library is extensible via {!register}. *)

type field = { field_name : string; bits : int }

type t = { header_name : string; fields : field list }

val ethernet : t
val vlan : t
val nsh : t
val ipv4 : t
val tcp : t
val udp : t

val lookup : string -> t option
(** Search the standard library and registered extensions. *)

val register : t -> unit
(** Add a header to the library. Re-registering the same layout is
    idempotent; @raise Invalid_argument on a conflicting layout for an
    existing name. *)

val total_bits : t -> int
