(** BESS pipeline + scheduler generation (§4.2 "Codegen for BESS packet
    steering and NF scheduling", §A.1).

    For each server used by the placement: build the module graph
    (PortInc -> shared NSHdecap demux -> per-subgroup run-to-completion
    instances [-> CoreLB when replicated] -> NSHencap -> PortOut), build
    the per-core scheduler trees (round-robin shared cores, rate limits
    enforcing t_max), and render the BESS configuration script. *)

type core = { server : string; core : int; socket : int }
(** One subgroup replica's core: its number on [server] and its socket. *)

type server_artifact = {
  server : string;
  graph : Lemur_bess.Module_graph.t;
  scheduler : Lemur_bess.Scheduler.t;
  script : string;
  generated_lines : int;
}

val replica_cores :
  Lemur_placer.Plan.config -> Lemur_placer.Strategy.chain_report list -> core array array list
(** Per chain report, per subgroup, one [core] per replica: the core
    {!generate} pins the replica's task to. Cores are numbered per
    server from 1 in report order (core 0 is the demux). *)

val generate :
  Lemur_placer.Plan.config ->
  Lemur_placer.Strategy.chain_report list ->
  server_artifact list
(** One artifact per server that hosts at least one subgroup, with each
    replica's task attached to its {!replica_cores} core. The module
    graphs pass [Module_graph.validate]. *)
