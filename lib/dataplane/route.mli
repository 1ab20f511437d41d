(** The deployment both dataplane executors run, laid out once.

    {!layout} turns a placement into what {!Sim} and {!Engine} each
    execute: per chain its capped offered rate, its {e routes}, its
    subgroups' replica cores and load-balancing cycles, and its NF
    packet counters. A placed chain's linearized graph paths collapse
    into routes: a traffic fraction, the ordered physical sites the
    packet visits (server visits with their inline SmartNIC NFs and
    run-to-completion subgroups, OpenFlow hops), and the PISA-resident
    NFs that run at ToR line rate without ever becoming events. Replica
    cores are the ones {!Lemur_codegen.Bessgen.generate} pins, so both
    executors charge the generated script's NUMA costs. Because the two
    executors share the layout, a divergence between them is a
    timing/queueing difference, never a routing one — which is what
    makes the convergence check in [lemur_check] meaningful. *)

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
          never appear as events, so executors credit them with
          {!credit_switch_nfs}. *)
}

val pick : float array -> float -> int
(** [pick fractions r] is the route a uniform draw [r] in \[0, 1)
    selects: the first route whose cumulative fraction exceeds [r],
    else the last one. Both executors pick routes with it. *)

val wire_delay : float
(** One-way propagation between the ToR and a server, ns. *)

val demux_cycles_per_pkt : float
(** The NSH demux core's per-packet cycles (Metron tagging skips it). *)

type subgroup = {
  sg_nodes : int array;  (** its NFs, in run-to-completion order *)
  replicas : Lemur_codegen.Bessgen.core array;
      (** one core per replica, as the BESS script pins them *)
  lb : float;
      (** per-packet load-balancing cycles on each replica: the HashLB's
          when replicated without Metron tagging, else 0 *)
}

type chain = {
  report : Lemur_placer.Strategy.chain_report;
  offered : float;
      (** bit/s the generator offers: the chain's entry in [offered] if
          listed (clamped at 0), else [overdrive] times its LP-allocated
          rate; either way capped at [t_max] and the ToR port rate *)
  routes : t array;  (** one per linearized path *)
  fractions : float array;  (** [routes]' traffic fractions, for {!pick} *)
  subgroups : subgroup array;  (** indexed like the report's subgroups *)
  nf_counters : Lemur_telemetry.Counter.t array;
      (** [dataplane.nf.<chain>.<id>.<name>.pkts], indexed by graph node *)
}

val layout :
  offered:(string * float) list ->
  overdrive:float ->
  Lemur_placer.Plan.config ->
  Lemur_placer.Strategy.placement ->
  chain list
(** The deployment both executors run, one [chain] per chain report,
    with its NF counters registered in the current telemetry sink.
    Adjacent hops of a route fuse into one visit only when they share a
    physical site: segments of the same chain placed on different
    servers traverse the ToR between them. SmartNIC-resident NFs run on
    the NIC's host. *)

val credit_switch_nfs : chain -> int array -> unit
(** [credit_switch_nfs c per_route] adds [per_route.(r)] packets to the
    counter of every switch-resident NF on route [r]: they run at line
    rate, so executors credit them once the run ends. *)
