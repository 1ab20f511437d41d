(** The run journal and SLO-compliance report a control-loop run emits.

    Everything in the report except the controller decision latencies is
    a deterministic function of the trace and the engine seed, so
    {!digest} (which excludes the latencies) is bit-stable across runs:
    CI replays a trace twice and fails on digest drift, and the fuzzer
    uses digest equality as its nondeterminism check. *)

type journal_entry =
  | Applied of { at : float; what : string }
  | Rejected of { at : float; what : string; reason : string }
      (** event refused (unknown chain, element not failed, ...) —
          per-event error semantics; the run continues *)
  | Violation of { at : float; chain : string; kind : string; seconds : float }
      (** [kind] is ["throughput"] or ["latency"]; [seconds] is the
          epoch length charged to the chain *)
  | Reconfigured of {
      at : float;
      reason : string;
      chains : int;
      predicted_rate : float;  (** bit/s aggregate of the new placement *)
      moves : int;
          (** chains present before and after whose placement (locations
              or segment-to-server homes) changed — what the
              orchestration layer must actually migrate *)
      capped : bool;
          (** the move budget forced a hybrid placement that re-homes
              fewer chains than the unconstrained one wanted *)
      exempt : bool;
          (** mandatory trigger or window install: the budget does not
              apply *)
    }
  | Deferred of { at : float; trigger : string }
      (** the policy declined to act on a deferrable trigger *)
  | Infeasible of { at : float; reason : string }
      (** a re-placement attempt failed; the old deployment stays *)

type chain_compliance = {
  cc_id : string;
  cc_throughput_violation_s : float;
  cc_latency_violation_s : float;
  cc_marginal_bits : float;
      (** ∫ marginal dt over the run, with each epoch's marginal from
          {!Lemur_slo.Slo.verdict} (delivery above [min offered t_min])
          — the marginal-throughput integral the paper's objective
          prices *)
  cc_delivered_bits : float;
}

type stop =
  | Completed
  | Aborted of { at : float; reason : string }
      (** a mandatory re-placement was infeasible: the run cannot
          continue operating a valid deployment *)

type t = {
  policy : string;
  seed : int;
  horizon : float;
  events_applied : int;
  events_rejected : int;
  epochs : int;
  reconfigs : int;
  reconfig_reasons : (string * int) list;  (** sorted by reason *)
  chains : chain_compliance list;  (** sorted by chain id *)
  total_violation_s : float;  (** chain-seconds, throughput + latency *)
  total_marginal_bits : float;
  moves_total : int;  (** Σ moves over non-exempt reconfigurations *)
  moves_capped : int;  (** reconfigurations the move budget capped *)
  forecast_mae : (string * float) list;
      (** per chain, mean absolute one-step-ahead forecast error (bit/s)
          — only populated under a [Proactive] policy; sorted by id *)
  decision_latency_s : float list;
      (** placer wall time per reconfiguration, oldest first — the only
          nondeterministic field; excluded from {!digest} *)
  journal : journal_entry list;  (** oldest first *)
  stop : stop;
}

val digest : t -> string
(** Hex digest of the canonical JSON rendering minus
    [decision_latency_s]. Equal traces and seeds give equal digests. *)

val to_json : t -> Lemur_telemetry.Json.t
(** Schema [lemur.runtime/2]; see [docs/RUNTIME.md]. *)

val pp : Format.formatter -> t -> unit
