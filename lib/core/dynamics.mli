(** Deployment dynamics (§3.2 "Dynamics", §7): the chain-set edits.

    The placement algorithm re-runs when a chain configuration changes —
    an operator adds or removes a chain, changes an SLO, or a customer
    buys more burst. This module is only the pure edit; re-placing the
    edited chain set is the runtime engine's job
    ([Lemur_runtime.Engine]), which also installs precomputed placements
    for time-varying SLO windows. Actual traffic migration is left to
    the orchestration framework, as in the paper. *)

type event =
  | Slo_changed of { chain_id : string; slo : Lemur_slo.Slo.t }
  | Chain_added of Lemur_placer.Plan.chain_input
  | Chain_removed of string

val update_inputs :
  Lemur_placer.Plan.chain_input list ->
  event ->
  (Lemur_placer.Plan.chain_input list, string) result
(** The chain-set edit alone, without re-placing. Unknown chain ids in
    [Slo_changed] / [Chain_removed] are an [Error]; so are adding a
    chain id already present and removing the last chain. An added
    chain goes last; the others keep their order. *)
