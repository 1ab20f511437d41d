(** End-to-end Lemur: specification text in, placed + compiled +
    measurable deployment out (Figure 1's full flow).

    {[
      let topo = Lemur_topology.Topology.testbed () in
      let d =
        Deployment.of_spec ~topology:topo
          "chain web slo(tmin='1Gbps', tmax='100Gbps') = ACL -> Encrypt -> IPv4Fwd"
        |> Result.get_ok
      in
      let measured = Deployment.measure d in
      ...
    ]} *)

type t = private {
  config : Lemur_placer.Plan.config;
  placement : Lemur_placer.Strategy.placement;
  artifact : Lemur_codegen.Codegen.artifact;
}
(** Private: only {!of_placement} builds one, so every deployment's
    [artifact] has passed {!Lemur_codegen.Routing_check.verify} against
    its [placement]. *)

val deploy :
  ?strategy:Lemur_placer.Strategy.t ->
  Lemur_placer.Plan.config ->
  Lemur_placer.Plan.chain_input list ->
  (t, string) result
(** Place (default strategy: [Lemur]) and run the meta-compiler. *)

val of_placement :
  Lemur_placer.Plan.config ->
  Lemur_placer.Strategy.placement ->
  (t, string) result
(** The meta-compiler half of {!deploy}: compile and routing-check an
    already-evaluated placement. For callers that choose plans
    themselves (e.g. the runtime engine's move-budgeted hybrid, which
    evaluates its mixed plan set with
    {!Lemur_placer.Strategy.evaluate_plans}'s spare-policy sweep). *)

val of_spec :
  ?strategy:Lemur_placer.Strategy.t ->
  ?topology:Lemur_topology.Topology.t ->
  ?profiler:Lemur_profiler.Profiler.t ->
  ?metron:bool ->
  ?acl_algo:Lemur_classifier.Classifier.algo option ->
  string ->
  (t, string) result
(** Parse a specification (chains with optional [slo(...)] clauses),
    then {!deploy} on the given topology (default: the paper's
    single-server testbed). [metron] enables the Metron-style
    core-tagging extension. [acl_algo] selects the flow-classification
    algorithm ACL elements model ([None], the default, keeps the
    datasheet cost model). *)

val measure :
  ?seed:int -> ?duration:float -> ?batch_pkts:int -> ?overdrive:float ->
  ?traffic:Lemur_dataplane.Sim.traffic -> t ->
  Lemur_dataplane.Sim.result
(** Execute the deployment on the packet-level simulator. *)

val slo_report :
  t ->
  Lemur_dataplane.Sim.result ->
  (Lemur_dataplane.Sim.chain_result * Lemur_slo.Slo.t * Lemur_slo.Slo.verdict) list
(** Per chain, in placement order: its measured result, its SLO and
    {!Lemur_slo.Slo.verdict} ([~slack:0.]) on the two, which judges
    both the throughput floor and [d_max]. *)
