(** End-to-end validation of the generated chain routing (§4.1).

    Parses the steering entries back out of the generated P4 program and
    walks every service path the way the switch would: start from the
    ingress classification, follow (SPI, SI) transitions entry by entry,
    and check that the sequence of steering targets matches the chain's
    placed NF sequence and terminates at the egress entry with SI = 0.

    This closes the loop on the meta-compiler: the check consumes only
    the emitted artifact text, so a codegen regression (wrong SI
    arithmetic, a missing hop, a misdirected port, a misclassified
    aggregate) fails here even if the placement data structures look
    right. *)

type entry = { e_spi : int; e_si : int; next_spi : int; next_si : int; port : string }
(** [/* entry */ set (spi=e_spi, si=e_si) -> steer(next_spi, next_si, port);] *)

type classification = {
  chain_id : string;
  path : int;
  to_spi : int;
  to_si : int;
  to_port : string;
}
(** [/* entry */ classify (aggregate=chain_id/path<path>) -> steer(to_spi, to_si, to_port);] *)

type table
(** The steering entries of one P4 program, indexed by (SPI, SI). *)

val parse : string -> table
(** One linear pass over the source. A line is handed to [Scanf] only
    when it could match: its trimmed text starts with [/*] and it holds
    the entry form's [(spi=] or [(aggregate=] literal. Accepts exactly
    the lines a [Scanf] attempt on every trimmed line would. *)

val entries : table -> entry list
(** The [set] entries in source order. *)

val classifications : table -> classification list
(** The ingress [classify] entries in source order. *)

val find : table -> spi:int -> si:int -> entry option
(** The first [set] entry for (spi, si) in source order. *)

val verify :
  Lemur_placer.Strategy.placement -> Codegen.artifact -> (unit, string) result
(** [Ok ()] when every service path of every chain has exactly one
    classify entry, steering its chain's aggregate to (SPI, path length,
    pipeline), and routes correctly from there. Placements with nothing
    on the switch (no P4 program, hence no steering table) verify
    trivially. *)
