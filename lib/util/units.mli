(** Units used throughout Lemur.

    Rates are bits per second (float), time is nanoseconds (float where a
    duration, int64 where a simulator clock), cycle costs are CPU
    cycles/packet (float). Helper constructors keep call sites readable
    and conversion bugs out. *)

val gbps : float -> float
(** [gbps x] is [x] Gbit/s expressed in bit/s. *)

val to_gbps : float -> float
(** bit/s -> Gbit/s. *)

val ghz : float -> float
(** [ghz x] is a clock rate in Hz. *)

val us : float -> float
(** [us x] is [x] microseconds in nanoseconds. *)

val ms : float -> float
(** [ms x] is [x] milliseconds in nanoseconds. *)

val to_us : float -> float
(** nanoseconds -> microseconds. *)

val bytes_to_bits : int -> float

val pps_of_bps : pkt_bytes:int -> float -> float
(** Convert a bit rate to packets/s for a given packet size. *)

val bps_of_pps : pkt_bytes:int -> float -> float
(** Convert packets/s to a bit rate for a given packet size. *)

val exact_string : float -> string
(** Shortest decimal string that re-reads ([float_of_string]) to exactly
    the same float — ["%.12g"] when that round-trips, ["%.17g"]
    otherwise. The printer behind every text format that must re-parse
    bit-identically (traces, policy strings). *)

val pp_rate : Format.formatter -> float -> unit
(** Human-readable rate, e.g. ["12.34 Gbps"]. *)
