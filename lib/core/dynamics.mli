(** Deployment dynamics (§3.2 "Dynamics", §7).

    The placement algorithm re-runs when a chain configuration changes —
    an operator adds or removes a chain, changes an SLO, or a customer
    buys more burst. The Placer is fast enough (milliseconds here, 3.5 s
    in the paper) to handle these inline; actual traffic migration is
    left to the orchestration framework, as in the paper.

    Time-varying SLOs (§7: "minimum rate of x between 10am and 4pm") are
    supported by precomputing one placement per window and installing
    them on schedule. *)

type event =
  | Slo_changed of { chain_id : string; slo : Lemur_slo.Slo.t }
  | Chain_added of Lemur_placer.Plan.chain_input
  | Chain_removed of string

val inputs_of : Deployment.t -> Lemur_placer.Plan.chain_input list
(** The deployment's current chain inputs. *)

val update_inputs :
  Lemur_placer.Plan.chain_input list ->
  event ->
  (Lemur_placer.Plan.chain_input list, string) result
(** The chain-set edit alone, without re-placing — the validation every
    other entry point shares (the runtime engine included). Unknown
    chain ids in [Slo_changed] / [Chain_removed] are an [Error]; so are
    adding a chain id already present and removing the last chain. An
    added chain goes last; the others keep their order. *)

val apply : Deployment.t -> event -> (Deployment.t, string) result
(** Recompute the placement and regenerate the coordination code for the
    updated chain set. Unknown chain ids in [Slo_changed] /
    [Chain_removed] are an [Error]; so is removing the last chain. *)

val apply_batch : Deployment.t -> event list -> (Deployment.t, string) result
(** Validate every event against the evolving chain set — an [Error]
    carries {!apply}'s message for the offending event, prefixed with
    its position and kind — then recompute the placement {e once} for
    the final set. [n] events cost one placer run instead of [n], and a
    sequence whose intermediate chain sets are infeasible but whose
    final set is feasible now succeeds. *)

(** Precomputed placements for time-varying SLOs. *)
module Schedule : sig
  type window = {
    label : string;  (** e.g. ["peak"], ["off-peak"] *)
    slos : (string * Lemur_slo.Slo.t) list;  (** chain id -> SLO *)
  }

  type t

  val precompute :
    Lemur_placer.Plan.config ->
    Lemur_placer.Plan.chain_input list ->
    window list ->
    (t, string) result
  (** Place every window up front (§7: "Lemur can precompute chain
      placements for those SLOs and install them accordingly").
      [Error] when any window is infeasible, naming it. *)

  val deployment : t -> string -> Deployment.t option
  (** The installed placement for a window label. *)

  val labels : t -> string list
end
