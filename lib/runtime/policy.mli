(** Reconfiguration policies: {e when} the control loop re-runs the
    Placer.

    Re-placement is cheap for the Placer (milliseconds) but expensive
    for the deployment — the orchestration layer must migrate flow
    state, reprogram the switch, and drain cores — so the controller
    trades reconfiguration count against SLO violation time:

    - [Immediate] reacts to everything: every structural event and
      every traffic shift triggers a re-placement.
      Minimum violation-seconds, maximum churn.
    - [Debounced] applies hysteresis: a configurable budget of
      violation-seconds must accumulate (and a cooldown elapse since
      the last reconfiguration) before the controller acts. Structural
      edits it can defer (SLO changes, recoveries, traffic) wait for
      the budget; only mandatory events (chain add/remove, a failure
      the deployment depends on) bypass it. The accumulator decays
      with a 0.2 s half-life, so only {e recent}
      violation counts against the budget.
    - [Scheduled] only reconfigures on window switches (installing the
      placements the engine precomputed for every window) and on
      mandatory events.
    - [Proactive] forecasts each chain's demand ({!Forecast}) and
      reconfigures when the forecast predicts an SLO breach within
      [horizon_s] — {e before} the monitor observes one. It also acts
      on structural edits immediately (they will bite eventually), but
      ignores raw traffic shifts: the forecast alarm is its only
      reactive channel.

    Mandatory triggers are always honoured regardless of policy — the
    controller never keeps serving a chain set or rack that no longer
    exists. *)

type t =
  | Immediate
  | Debounced of { budget_s : float;  (** violation-seconds tolerated *)
                   cooldown_s : float  (** min gap between reconfigs *) }
  | Scheduled
  | Proactive of {
      horizon_s : float;  (** look-ahead window, seconds *)
      model : Forecast.model;
      headroom : float;
          (** safety margin: act when forecast * (1 + headroom) exceeds
              the chain's allocation *)
    }

val default_debounced : t
(** 30 ms budget, 20 ms cooldown. *)

val default_proactive : t
(** 20 ms horizon, {!Forecast.default_model}, 0.1 headroom. *)

(** Why the engine is consulting the policy. *)
type trigger =
  | Mandatory  (** chain set or used hardware changed; never deferrable *)
  | Structural  (** placement inputs changed, old deployment still valid *)
  | Traffic_shift  (** offered load moved; placement inputs unchanged *)
  | Forecast  (** a demand forecast predicts an SLO breach in-horizon *)

type state = {
  mutable violation_s : float;
      (** decayed accumulation since the last reconfig, as of
          [last_violation] *)
  mutable last_reconfig : float;
  mutable last_violation : float;  (** when [violation_s] was last current *)
}

val initial_state : unit -> state

val note_violation : state -> now:float -> float -> unit
(** Decay the accumulator to [now], then add [s] violation-seconds. *)

val note_reconfig : state -> now:float -> unit
(** Resets the violation budget and stamps the cooldown clock. *)

val decide : t -> state -> now:float -> trigger -> bool

val parse : string -> (t, string) result
(** ["immediate"], ["scheduled"], ["debounced"], ["proactive"], or the
    parameterised forms ["debounced:BUDGET_MS[:COOLDOWN_MS]"] and
    ["proactive:HORIZON_MS[:ewma:ALPHA|:holt:ALPHA:BETA[:HEADROOM]]"].
    Durations are milliseconds, or seconds with an ["s"] suffix
    (["debounced:0.25s"]). Strict: an empty component — a trailing or
    doubled [':'] as in ["debounced:10:"] — is rejected with the
    1-based column of the offending position, never silently defaulted.
    For every [p], [parse (to_string p) = Ok p] bit-exactly. *)

val name : t -> string
(** Stable short name: [immediate], [debounced], [scheduled],
    [proactive]. *)

val to_string : t -> string
(** [name] plus parameters, parseable by {!parse} back to a structurally
    identical value (floats included). *)

val trigger_name : trigger -> string
