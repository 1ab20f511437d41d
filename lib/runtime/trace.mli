(** Timestamped event traces — the input of the {!Engine} control loop.

    A trace is a complete description of a run: the rack, the initial
    chain set (in the specification language), optional time-varying SLO
    windows, and a time-ordered stream of events — per-chain offered-rate
    changes, {!Lemur.Dynamics.event}-shaped chain/SLO edits, hardware
    failures and recoveries, and window switches.

    Traces exist in three forms that all round-trip: a line-oriented text
    file ({!parse} / {!to_string}, format documented in
    [docs/RUNTIME.md]), the in-memory {!t}, and a deterministic seeded
    generator ({!generate}) in the [Lemur_check.Scenario] style — equal
    seeds yield equal traces, so any runtime fuzz failure replays from
    its seed alone. *)

type action =
  | Traffic of { chain_id : string; rate : float }
      (** the chain's offered load becomes [rate] bit/s *)
  | Set_slo of { chain_id : string; slo : Lemur_slo.Slo.t }
  | Add_chain of { decl : string }
      (** a chain declaration in the spec language, sans the leading
          [chain] keyword: ["x0 slo(tmin='1Gbps') = ACL -> NAT"] *)
  | Remove_chain of string
  | Fail of Lemur.Failover.failure
  | Recover of Lemur.Failover.failure
  | Window of string  (** switch to the named SLO window *)

type event = { at : float;  (** seconds since the start of the run *)
               action : action }

(** Rack knobs, mirroring the CLI's topology options. *)
type topo_spec = {
  servers : int;
  cores_per_socket : int;
  smartnic : bool;
  ofswitch : bool;
  no_pisa : bool;
  metron : bool;
}

type t = {
  seed : int option;  (** generator seed, when generated; informational *)
  topo : topo_spec;
  chains : string list;
      (** initial chain declarations (spec language, sans [chain]) *)
  windows : (string * (string * Lemur_slo.Slo.t) list) list;
      (** label -> per-chain SLO overrides (§7 time-varying SLO
          windows) *)
  events : event list;  (** sorted by [at], ascending *)
  horizon : float;  (** run length, seconds *)
}

val topology : t -> Lemur_topology.Topology.t
val config : t -> Lemur_placer.Plan.config

val initial_inputs : t -> (Lemur_placer.Plan.chain_input list, string) result
(** Parse the initial chain declarations. *)

val dynamics_event : action -> (Lemur.Dynamics.event, string) result option
(** The {!Lemur.Dynamics.event} behind a structural action ([Set_slo],
    [Add_chain], [Remove_chain]); [None] for the rest. *)

type parse_error = {
  pe_file : string option;  (** the [?file] given to {!parse} *)
  pe_line : int;  (** 1-based; 0 for whole-trace errors *)
  pe_col : int;
      (** 1-based column of the offending token when the parser can
          point at one (a bad [key=value], an unknown SLO key, a bad
          topology option); 1 otherwise *)
  pe_message : string;
}

val parse_error_to_string : parse_error -> string
(** [file:line:col: message] — the compiler-style rendering the CLI
    prints (no backtrace). *)

val parse : ?file:string -> string -> (t, parse_error) result
(** Parse the text format; [Error] carries file/line/column. [file] is
    only used for error reporting. With [no-pisa], a [servers=],
    [cores=] or [smartnic] option that would change the fixed no-PISA
    testbed is an error pointing at that option. *)

val to_string : t -> string
(** Render to the text format. [parse (to_string t)] re-reads an equal
    trace (floats are printed round-trip exactly). *)

(** Generator families — each a different demand/availability shape,
    equally deterministic per seed. *)
type kind =
  | Churn
      (** the original mixed bag: traffic ramps, SLO changes, chain
          add/remove, failure/recovery pairs, window switches *)
  | Diurnal
      (** per-chain sinusoidal demand (seeded period/phase/amplitude) on
          a dense grid — slow coherent ramps a trend-aware forecaster
          can extrapolate; purely traffic events, no structural churn *)
  | Flash_crowd
      (** quiet baselines with sudden spikes to several times the base
          rate: a steep few-event onset ramp, a hold, a decay *)
  | Failure_burst
      (** a redundant rack where 2–3 elements fail within ~2 ms of each
          other and recover 20–40 ms later *)
  | Tenant_churn
      (** tenants arrive and depart constantly — add/remove-heavy *)

val all_kinds : kind list
(** In declaration order. *)

val kind_to_string : kind -> string
(** [churn], [diurnal], [flash-crowd], [failure-burst],
    [tenant-churn]. *)

val kind_of_string : string -> (kind, string) result

val generate : ?events:int -> ?kind:kind -> seed:int -> unit -> t
(** A random but deterministic trace of the given [kind] (default
    [Churn]) with [events] (default 60) events: equal [(kind, events,
    seed)] yield equal traces, and every generated trace is a fixed
    point of the text round-trip ([parse (to_string t)] = [t], floats
    bit-exact). *)

val pp : Format.formatter -> t -> unit
val pp_action : Format.formatter -> action -> unit
