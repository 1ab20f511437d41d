(** OpenFlow rule generation and feasibility (§5.3 "Placement on an
    OpenFlow switch").

    An OpenFlow switch has a fixed table pipeline, so the Placer must
    check that a chain's NFs placed there respect the hardware table
    order; and it does not support NSH, so chain steering uses the VLAN
    vid, packing SPI/SI per {!Vlan}. *)

(** The NSH service-path identity (§4.1) packed into the 12-bit VLAN
    vid: the Service Path Index (SPI) names the linear service path,
    and the Service Index (SI) counts down the NFs left on it. SPI takes
    the high 8 bits, SI the low 4 (chains of <= 15 NFs). *)
module Vlan : sig
  type t = { spi : int; si : int }

  val encode : t -> int
  (** @raise Invalid_argument when spi/si exceed the packed budget. *)

  val decode : int -> t

  val max_spi : int
  val max_si : int
end

type action =
  | Forward of { port : string }
  | Set_vid of { vid : int }
  | Push_vlan of { vid : int }
  | Pop_vlan
  | Drop
  | Count  (** per-flow statistics (Monitor) *)

type rule = {
  table : Lemur_nf.Kind.t;  (** the hardware table implementing the NF *)
  priority : int;
  match_vid : int option;  (** steering match; [None] matches fresh traffic *)
  match_fields : (string * string) list;
  actions : action list;
}

type program = { switch : string; rules : rule list }

exception Unplaceable of string

val check_placeable :
  Lemur_platform.Ofswitch.t -> Lemur_nf.Kind.t list -> unit
(** Chain-order compatibility with the fixed table pipeline (and kind
    support). @raise Unplaceable. *)

val steering_rules :
  spi:int -> entry_si:int -> Lemur_nf.Kind.t list -> rule list
(** Rules steering one chain segment through the given NF sequence:
    match the segment's vid, apply each table's NF action, rewrite the
    vid for the next hop. @raise Invalid_argument when the vid budget
    ({!Vlan}) is exceeded. *)

val compile :
  Lemur_platform.Ofswitch.t ->
  (int * int * Lemur_nf.Kind.t list) list ->
  program
(** [compile switch segments] with [segments = (spi, entry_si, kinds)]:
    checks placeability of each segment and emits all rules.
    @raise Unplaceable, also when a segment's SPI or entry SI does not
    fit the vid ({!Vlan.max_spi}, {!Vlan.max_si}). *)

val rule_count : program -> int
val pp : Format.formatter -> program -> unit
