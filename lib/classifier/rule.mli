(** Classification rules over the packet 5-tuple.

    A rule is a hyperrectangle: an IPv4 prefix per address (kept as a
    closed interval plus its prefix length, so tuple-space search can
    recover the mask), a closed port range per port, and an optional
    exact protocol. Rules live in priority order — [id] is the rule's
    position in its ruleset and doubles as its priority rank (0 =
    highest), so the highest-priority match is unique by construction
    and two classifiers agree iff they return the same [id]. *)

type action = Permit | Deny

type t = {
  id : int;  (** position in the ruleset = priority rank (0 wins) *)
  src_lo : int;
  src_hi : int;
  src_plen : int;  (** prefix length of \[src_lo, src_hi\] (0 = wildcard) *)
  dst_lo : int;
  dst_hi : int;
  dst_plen : int;
  sport_lo : int;
  sport_hi : int;
  dport_lo : int;
  dport_hi : int;
  proto : int option;  (** [None] = any protocol *)
  action : action;
}

type header = {
  src : int;  (** IPv4 source, 32-bit *)
  dst : int;
  sport : int;  (** 16-bit *)
  dport : int;
  proto : int;  (** 8-bit *)
}

val matches : t -> header -> bool
(** Full 5-tuple containment check. *)

val corner : t -> header
(** The low corner of the rule's hyperrectangle — a header guaranteed
    to satisfy [matches] (protocol defaults to TCP on wildcard rules).
    Used by the mutation tests to aim traffic at one specific rule. *)
