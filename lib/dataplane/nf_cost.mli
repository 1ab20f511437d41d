(** Per-NF packet costs, built once per run and shared by {!Sim} and
    {!Engine}, so both executors draw from the same laws and classify
    against the same rulesets. *)

val nic_socket : int
(** The socket the NIC hangs off: NFs on any other socket pay the
    datasheet's cross-NUMA cost. *)

val numa_factor : socket:int -> float
(** The datasheet's cycle multiplier for work on [socket]: 1 on the
    NIC's socket. *)

val flows : int
(** Concurrent flows per chain (footnote 6): flow ids are uniform in
    \[0, flows). *)

val law : ?short_flows:bool -> Lemur_spec.Graph.node -> socket:int -> Lemur_util.Prng.law
(** The NF's per-packet cycle law on [socket]: a truncated Gaussian
    over the datasheet's sized \[min, max] with sigma = (max - min) / 5.
    [short_flows] (default off) raises a stateful NF's mean by 1.2 %
    and its max by 1.8 %. *)

val acl_classifier :
  Lemur_placer.Plan.config ->
  Lemur_spec.Graph.node ->
  Lemur_classifier.Classifier.t option
(** [acl_classifier config] is a lookup, to be built once per run, that
    gives each ACL node its canonical classifier when [config.acl_algo]
    is set ([None] for every other node, or when classification is
    off). Classifiers are built once per ruleset size and shared by
    every node of that size. *)

val flow_headers :
  (Lemur_spec.Graph.node -> Lemur_classifier.Classifier.t option) ->
  Lemur_spec.Graph.t ->
  Lemur_classifier.Rule.header array
(** The chain's synthetic traffic: one 5-tuple header per flow id,
    drawn from the first classified node's ruleset — the corpus the
    profiler predicts against. [[||]] when no node is classified. *)
