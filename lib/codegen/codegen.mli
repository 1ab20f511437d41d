(** The meta-compiler's front door: placement in, deployable artifacts
    out (§4).

    Given a Placer outcome, synthesize every platform's configuration:
    the unified P4 program for the ToR, one BESS script per server, XDP
    C programs for SmartNIC-placed NFs, and OpenFlow rules. Also
    aggregates the line-count statistics behind §5.3's "about a third of
    the code is auto-generated" claim. *)

type artifact = {
  spi : Spi.t;
  p4 : P4gen.program option;  (** [None] when nothing sits on the ToR *)
  bess : Bessgen.server_artifact list;
  ebpf : Ebpfgen.nic_artifact list;
  openflow : Lemur_openflow.Openflow.program option;
}

type loc_stats = {
  library_loc : int;  (** NF implementation lines (hand-written library) *)
  generated_loc : int;  (** lines the meta-compiler synthesized *)
  steering_loc : int;  (** generated lines that are steering entries *)
  generated_fraction : float;
}

val compile :
  Lemur_placer.Plan.config -> Lemur_placer.Strategy.placement -> artifact
(** @raise Ebpfgen.Rejected or [Lemur_openflow.Openflow.Unplaceable] on
    placements the artifacts cannot express: ones the Placer should not
    have produced, and OpenFlow hops whose (SPI, SI) does not fit the
    VLAN vid. *)

val loc : artifact -> loc_stats

val pp_summary : Format.formatter -> artifact -> unit
