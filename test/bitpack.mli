(** Bit-level packing of header fields against {!P4header} layouts.

    Fields are written MSB-first in declaration order, exactly as a P4
    parser would extract them. Used to build test packets and to execute
    parse trees over real bytes ({!Parse_exec}); also checks the P4
    header library's NSH layout against RFC 8300's wire format. *)

open Lemur_p4

val header_bytes : P4header.t -> int
(** Size of the header on the wire. @raise Invalid_argument if the
    layout is not byte-aligned overall. *)

val write : P4header.t -> (string * int) list -> bytes
(** Encode field values (unset fields are 0). Values are truncated to
    the field width; fields wider than 62 bits take the value in their
    low bits. @raise Invalid_argument on unknown field names. *)

val read : P4header.t -> bytes -> bit_offset:int -> (string * int) list
(** Decode all fields starting at [bit_offset]. Fields wider than 62
    bits yield their low 62 bits. @raise Invalid_argument if the packet
    is too short. *)

val field : P4header.t -> bytes -> bit_offset:int -> string -> int
(** Decode a single field. @raise Not_found on unknown fields. *)
