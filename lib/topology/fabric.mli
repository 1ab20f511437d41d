(** Spine/leaf fabric: many racks of the single-rack {!Topology}
    testbed, joined by leaf->spine uplinks with per-direction
    capacities, plus tenant-level demand aggregates that expand into
    the thousands of per-chain placement inputs a datacenter-scale
    deployment carries.

    The model is deliberately two-tier: every rack's leaf switch (its
    ToR) connects to all [spines] spine switches, so any rack reaches
    any other rack in exactly one spine hop and the only fabric-level
    capacity that matters is each rack's aggregate uplink, per
    direction. Spine switching capacity is assumed non-blocking (as in
    a folded Clos built from the same Tofino-class silicon as the
    leaves); what can saturate is the leaf's uplink bundle. The sharded
    placer ({!Lemur_placer.Shard}) therefore accounts inter-rack chains
    against [uplink_up] at the chain's ingress rack and [uplink_down]
    at its serving rack, and {!Lemur_check.Fabric_check} re-derives
    those loads independently. See docs/TOPOLOGY.md for the full
    capacity-accounting story and a worked two-rack example. *)

type rack = {
  rack_name : string;
  rack : Topology.t;  (** the rack's internal single-rack topology *)
  uplink_up : float;
      (** bit/s, aggregate leaf->spine capacity (all spine links) *)
  uplink_down : float;  (** bit/s, aggregate spine->leaf capacity *)
}

type t = {
  spines : int;  (** spine switch count (every leaf connects to all) *)
  racks : rack list;  (** sorted by [rack_name]; names are unique *)
}

exception Invalid of string

val make : ?spines:int -> rack list -> t
(** Assemble a fabric; racks are sorted by name. Default [spines] 2.
    @raise Invalid on duplicate rack names, an empty rack list,
    non-positive spine count, or non-positive uplink capacities. *)

val synthetic :
  ?racks:int ->
  ?servers_per_rack:int ->
  ?cores_per_socket:int ->
  ?spines:int ->
  ?uplink_gbps:float ->
  unit ->
  t
(** A uniform fabric for experiments: [racks] (default 4) racks named
    [rack00], [rack01], ... each a {!Topology.testbed} with
    [servers_per_rack] (default 6) servers of [cores_per_socket]
    (default 8) cores, and [spines] (default 2) uplinks of
    [uplink_gbps] (default 100) per direction each — so each rack's
    aggregate uplink is [spines x uplink_gbps] per direction. Every
    fourth rack, from [rack00] on, gets a SmartNIC,
    mirroring the heterogeneous pods of a real deployment. *)

val num_racks : t -> int
val rack_names : t -> string list

val find_rack : t -> string -> rack
(** @raise Not_found *)

val uplink_capacity : t -> string -> [ `Up | `Down ] -> float
(** Aggregate uplink capacity of the named rack in the given
    direction. @raise Not_found *)

val total_nf_cores : t -> int
(** NF cores summed over every rack — the fabric-wide compute pool. *)

(** {1 Tenant demand aggregates}

    A tenant is a traffic aggregate — an access network, an enterprise
    VPN, a slice — whose demand is specified at the population level
    ([subscribers] x [rate_per_sub]) and served by [chains] identical
    chain instances, each carrying an equal share. Expansion turns the
    aggregate into ordinary per-chain SLOs: each instance gets
    [t_min = subscribers x rate_per_sub / chains], which is how
    millions of subscribers become thousands of placer inputs. *)

type tenant = {
  tn_name : string;
  tn_subscribers : int;
  tn_rate_per_sub : float;  (** bit/s of guaranteed demand each *)
  tn_chains : int;  (** chain instances the aggregate expands to *)
  tn_spec : string;  (** pipeline text, e.g. ["ACL -> NAT -> IPv4Fwd"] *)
  tn_home : string option;
      (** locality hint: the rack where the tenant's traffic enters the
          fabric (its access links land there) *)
  tn_pinned : bool;
      (** affinity: when true, instances must be served on [tn_home]
          (state locality, compliance); the shard planner will not
          re-home them *)
  tn_tmax : float;  (** per-instance burst ceiling, bit/s *)
  tn_dmax : float option;  (** per-instance latency bound, ns *)
}

val tenant :
  ?home:string ->
  ?pinned:bool ->
  ?tmax:float ->
  ?dmax:float ->
  ?chains:int ->
  name:string ->
  subscribers:int ->
  rate_per_sub:float ->
  string ->
  tenant
(** [tenant ~name ~subscribers ~rate_per_sub spec]. Defaults: no home
    rack, not pinned, [tmax] 100 Gbps, no [dmax], [chains] 1.
    @raise Invalid on non-positive subscribers, rate or chain count,
    or on [~pinned:true] without [~home]. *)

type demand = {
  d_id : string;  (** ["<tenant>/<k>"], unique across the fabric *)
  d_tenant : string;
  d_graph : Lemur_spec.Graph.t;
  d_slo : Lemur_slo.Slo.t;
  d_home : string option;
  d_pinned : bool;
}

val expand : tenant list -> demand list
(** Elaborate every tenant's spec once and fan it out into per-chain
    demands, in tenant order then instance order — a deterministic,
    stable expansion (instances of one tenant share the same graph
    value). The aggregate [t_min] divides evenly; a remainder of less
    than one bit/s per instance is absorbed by the first instance so
    the shares sum exactly to the aggregate.
    @raise Invalid on duplicate tenant names.
    @raise Lemur_spec.Graph.Invalid on bad specs. *)

val total_demand : demand list -> float
(** Σ t_min across demands, bit/s. *)

val synthetic_tenants :
  ?seed:int ->
  ?tenants:int ->
  ?chains:int ->
  t ->
  tenant list
(** A deterministic tenant population for benchmarks: [tenants]
    (default 8) tenants drawing from a small pool of short all-software
    chain templates, homed round-robin across the fabric's racks (every
    third tenant pinned), with [chains] (default 64) instances spread
    across tenants, 250 000 subscribers per tenant, and per-subscriber
    rates sized so that the fabric's compute pool is loaded but not
    hopeless. Same [seed] (default 1),
    fabric shape and counts give byte-identical tenants. *)
