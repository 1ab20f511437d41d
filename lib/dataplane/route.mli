(** Static service-path structure shared by both dataplane executors.

    A placed chain's linearized graph paths collapse into {e routes}: a
    traffic fraction, the ordered physical sites the packet visits
    (server visits with their inline SmartNIC NFs and run-to-completion
    subgroups, OpenFlow hops), and the PISA-resident NFs that run at
    ToR line rate without ever becoming events. The batch-level
    {!Sim} and the packet-level {!Engine} both execute these routes, so
    a divergence between them is a timing/queueing difference, never a
    routing one — which is what makes the convergence check in
    [lemur_check] meaningful. *)

type visit =
  | Server_visit of {
      server : string;
      nic_nodes : Lemur_spec.Graph.node_id list;  (** inline SmartNIC NFs *)
      subgroups : int list;  (** indices into the report's subgroups *)
    }
  | Of_visit

type t = {
  fraction : float;
  visits : visit list;
  sw_nodes : int list;
      (** PISA-resident NFs on this path: they run at ToR line rate and
          never appear as events, so executors credit them at ingress. *)
}

val build : ?nic_host:string -> Lemur_placer.Strategy.chain_report -> t list
(** One route per linearized path. Adjacent hops fuse into one visit
    only when they share a physical site; segments of the same chain
    placed on different servers traverse the ToR between them.
    [nic_host] (default ["server0"]) is where SmartNIC-resident NFs
    execute. *)

val pick : float array -> float -> int
(** [pick fractions r] is the route a uniform draw [r] in \[0, 1)
    selects: the first route whose cumulative fraction exceeds [r],
    else the last one. Both executors pick routes with it. *)

type core = { server : string; core : int; socket : int }
(** One subgroup replica's core: its number on [server] and its socket. *)

val cores :
  Lemur_topology.Topology.t -> Lemur_placer.Strategy.placement -> core array array list
(** Per chain report, per subgroup, one [core] per replica. Cores are
    numbered per server from 1 in report order, as the BESS code
    generator assigns them (core 0 is the demux), so both executors
    charge the same NUMA costs. *)

val offered_rate :
  offered:(string * float) list ->
  overdrive:float ->
  port_cap:float ->
  Lemur_placer.Strategy.chain_report ->
  float
(** The rate a chain's generator offers, bit/s: its entry in [offered]
    if listed (clamped at 0), else [overdrive] times its LP-allocated
    rate; either way capped at the chain's [t_max] and the ToR port
    rate [port_cap]. *)
