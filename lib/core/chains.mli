(** The five canonical NF chains of Table 2, written in Lemur's chain
    specification language, plus the evaluation's SLO scaffolding
    (§5.1 "Experiment Design").

    Chain 1 merges its three Subchain-8 paths into a single Subchain 8
    instance (so chains 1-4 total exactly the paper's 34 NF instances);
    chains 2 and 4 instantiate their branched NFs separately (3x NAT,
    3x Subchain 6). *)

val spec_text : int -> string
(** Source text of chain [n] (1-5). @raise Invalid_argument otherwise. *)

val graph : int -> Lemur_spec.Graph.t
(** Parsed and elaborated chain [n]. *)

val inputs_of_spec : string -> (Lemur_placer.Plan.chain_input list, string) result
(** Parse a specification into Placer inputs, one per declared chain,
    each with its [slo(...)] clause or best effort. [Error] reads
    ["parse error at line L: ..."], ["lexical error at L:C: ..."], the
    graph validation message, ["bad SLO: ..."], or ["specification
    declares no chains"]. *)

val chain_input :
  ?slo:Lemur_slo.Slo.t -> int -> Lemur_placer.Plan.chain_input
(** Chain [n] as Placer input (default SLO: best effort). *)

val base_rate : Lemur_placer.Plan.config -> Lemur_spec.Graph.t -> float
(** The chain's {e base rate}: the throughput of one core running the
    slowest software NF of the chain (§5.1), with worst-case profiled
    cycles. *)

val inputs_for_delta :
  Lemur_placer.Plan.config ->
  ?t_max:float ->
  delta:float ->
  int list ->
  Lemur_placer.Plan.chain_input list
(** The experiment inputs: each chain [n] in the list gets
    [t_min = delta x base_rate] and the given [t_max] (default
    100 Gbps). *)

val nf_instance_count : int list -> int
(** Total NF instances across the given chains (34 for [1;2;3;4]). *)
