(** Chain plans: a placement {e pattern} (a platform per NF) elaborated
    into the structure the Placer reasons about (§3.2) — run-to-completion
    subgroups, server segments (bounces), per-path traffic fractions,
    throughput capacity under a core allocation, worst-path latency, and
    the switch projection handed to the P4 stage checker.

    Node ids index arrays: [Lemur_spec.Graph] allocates ids densely in
    creation order. *)

type location =
  | Switch  (** ToR PISA switch *)
  | Server  (** x86 server class; the concrete server is chosen by the
                core-allocation step *)
  | Smartnic
  | Ofswitch

type chain_input = {
  id : string;
  graph : Lemur_spec.Graph.t;
  slo : Lemur_slo.Slo.t;
}

type config = {
  topology : Lemur_topology.Topology.t;
  profiler : Lemur_profiler.Profiler.t;
  pkt_bytes : int;
  eval_capabilities : bool;
      (** use Table 3's evaluation restriction (IPv4Fwd P4-only) *)
  numa : Lemur_nf.Datasheet.numa;
      (** NUMA assumption for profiles; [Diff] = the paper's
          conservative worst case *)
  metron_steering : bool;
      (** Metron-style extension (§3.2/§4.2 future work): the ToR tags
          packets with their target core, removing the server demux's
          load-balancing cost for replicated subgroups *)
  acl_algo : Lemur_classifier.Classifier.algo option;
      (** when set, ACL elements actually classify packets with this
          algorithm: the dataplane charges per-packet modeled lookup
          cycles, and every placement-side cost prediction prices ACLs
          via {!Lemur_profiler.Profiler.acl_cycles} at the instance's
          ruleset size instead of the flat datasheet law. [None]
          (default) keeps the legacy sampled-cycle behavior. *)
}

val default_config : Lemur_topology.Topology.t -> config
(** 1500-byte packets, eval capabilities, worst-case (Diff) NUMA, a
    fresh default profiler, no classifier ([acl_algo = None]). *)

val instance_cycles : config -> Lemur_nf.Instance.t -> float
(** Predicted worst-case cycles/packet of one software NF — the single
    choke point every placement-side consumer (strategies, MILP, stage
    checker, oracle, base rates) prices NFs through, so the
    classifier-aware ACL path cannot drift between layers. *)

val allowed_locations : config -> Lemur_nf.Instance.t -> location list
(** Where this NF may run, intersecting Table 3 with the topology's
    available hardware (no SmartNIC in the rack means no [Smartnic]
    choice) and, for the SmartNIC, the eBPF verifier model. *)

type subgroup = {
  sg_nodes : Lemur_spec.Graph.node_id list;  (** run-to-completion order *)
  sg_cycles : float;  (** per-packet cycles of the NFs, sans overheads *)
  sg_replicable : bool;
  sg_fraction : float;  (** share of the chain's traffic crossing it *)
  sg_segment : int;  (** which server segment the subgroup belongs to *)
}

type plan = {
  input : chain_input;
  locs : location array;  (** indexed by node id *)
  subgroups : subgroup list;
  segments : int;  (** distinct server segments in the DAG *)
  segment_fractions : (int * float) list;
      (** per server segment, the share of chain traffic entering it *)
  max_path_bounces : int;  (** worst single path's bounce count *)
  smartnic_nodes : Lemur_spec.Graph.node_id list;
  ofswitch_nodes : Lemur_spec.Graph.node_id list;
  link_visits : float;
      (** expected server-link traversals per packet (per direction):
          sum over paths of fraction x segments-on-path *)
  of_visits : float;  (** same for the OpenFlow switch link *)
  latency : float;
      (** worst entry-to-exit path latency (ns): NF execution +
          per-bounce cost + ToR traversals (rate-independent model; see
          DESIGN.md), computed once by {!elaborate} *)
}

exception Invalid_pattern of string

val elaborate : config -> chain_input -> location array -> plan
(** Check the pattern against {!allowed_locations}, form subgroups, and
    derive all the structure above, latency included. Nothing it derives
    depends on the chain's SLO.
    @raise Invalid_pattern if an NF is placed somewhere it cannot run,
    or OpenFlow table order is violated. *)

val max_path_bounces :
  location array -> Lemur_spec.Graph.path list -> int
(** The worst path's ToR bounce count (server plus OpenFlow segments)
    under a pattern — what {!elaborate} stores as [max_path_bounces],
    computable without elaborating. *)

val of_order_compatible :
  config -> Lemur_spec.Graph.t -> location array -> Lemur_spec.Graph.path list ->
  bool
(** Whether, on every path, the NFs a pattern puts on the OpenFlow
    switch respect its fixed table order (always [true] without an
    OpenFlow switch) — the check behind {!elaborate}'s table-order
    rejection. *)

val capacity : config -> plan -> cores:(int list) -> float
(** Estimated chain throughput (§3.2): the minimum over subgroups of
    [rate(sg, cores) / fraction(sg)] and over SmartNIC NFs of their NIC
    rate over fraction. [cores] aligns with [plan.subgroups].
    [infinity] for all-hardware chains (line rate). *)

val latency : plan -> float
(** The plan's [latency] field. *)

val meets_latency : plan -> bool
(** [latency plan <= d_max] of the plan's SLO (always [true] without a
    latency bound). *)

val switch_projection : plan -> Lemur_p4.Pipeline.chain_projection
(** The chain's switch-resident NFs with projected order, for the stage
    checker and the P4 code generator. *)

val pp_location : Format.formatter -> location -> unit
val pp : Format.formatter -> plan -> unit
