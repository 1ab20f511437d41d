(** Network Service Header (RFC 8300) service-path identity (§4.1).

    Lemur tags packets with a Service Path Index (SPI) identifying the
    linear service path and a Service Index (SI) sequencing NFs within
    it; the SI is decremented as NFs execute. The NSH wire layout itself
    lives in the generated P4 (the [nsh] header of [Lemur_p4.P4header]);
    this module holds the identity and the VLAN-vid fallback encoding
    for OpenFlow switches (§5.3), which packs SPI and SI into the 12-bit
    vid. *)

type t = { spi : int; si : int }

(** VLAN-vid fallback for OpenFlow (no NSH support): SPI in the high
    bits, SI in the low bits of the 12-bit vid. *)
module Vlan : sig
  val si_bits : int
  (** Bits of the vid reserved for the SI (4: chains of <= 15 NFs). *)

  val encode : t -> int
  (** @raise Invalid_argument when spi/si exceed the packed budget. *)

  val decode : int -> t

  val max_spi : int
  val max_si : int
end
