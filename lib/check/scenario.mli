(** Deterministic scenario generation for the differential fuzzer.

    A scenario is a complete Placer problem — a rack topology and a set
    of NF chains with SLOs — drawn reproducibly from a seed over
    {!Lemur_util.Prng}: equal seeds give equal scenarios, so any fuzz
    failure replays from the printed seed alone ([lemur fuzz --seed N]).

    Chains are random walks over the Table 3 NF vocabulary, linear or
    with one weighted branch (the two shapes
    {!Lemur_spec.Graph.linearize} distinguishes); SLO floors are drawn
    as fractions of the chain's {e base rate} (§5.1), the same scale the
    paper's Fig 2 sweeps, so scenarios sit near the feasibility
    boundary instead of being trivially easy or impossible. *)

type shape =
  | Linear of string list  (** NF names, head to tail *)
  | Branched of {
      pre : string list;
      arms : (float * string list) list;  (** weight x arm pipeline *)
      post : string list;
    }

type chain_scenario = {
  cs_id : string;
  cs_shape : shape;
  cs_tmin_frac : float;  (** t_min = frac x base rate (0 = best effort) *)
  cs_tmax : float;  (** bit/s *)
  cs_dmax : float option;  (** ns *)
  cs_weight : float;
}

type t = {
  sc_seed : int;
  sc_servers : int;
  sc_cores_per_socket : int;
  sc_smartnic : bool;
  sc_ofswitch : bool;
  sc_no_pisa : bool;
  sc_metron : bool;
  sc_pkt_bytes : int;
  sc_chains : chain_scenario list;
  sc_acl : Lemur_classifier.Classifier.algo option;
      (** flow-classification algorithm ACL elements model; [None]
          keeps the flat datasheet cost *)
}

val generate : ?quick:bool -> seed:int -> unit -> t
(** Deterministic in [seed]. [quick] (default [false]) bounds the
    instance size (at most 2 chains of at most 4 NFs) so that the
    brute-force Optimal strategy stays fast enough for tier-1 runs. *)

val config : t -> Lemur_placer.Plan.config
val inputs : t -> Lemur_placer.Plan.chain_input list
(** Chain inputs with concrete SLOs: [t_min = cs_tmin_frac x base rate]
    (capped at [cs_tmax]; all-hardware chains, whose base rate is
    infinite, use a 20 Gbps stand-in scale). *)

val size : t -> int
(** Total NF instances — the metric shrinking minimizes. *)

val pp : Format.formatter -> t -> unit
(** Full scenario dump: topology knobs and every chain's pipeline text
    and SLO — enough to reproduce a failure by eye. *)

val shrink : fails:(t -> bool) -> t -> t
(** Greedy minimization: repeatedly try simplifications (drop a chain,
    collapse a branch, drop an NF, shed topology features, relax SLO
    knobs) and keep any that still satisfies [fails]; stops at a local
    minimum or after a bounded number of re-runs. The result always
    satisfies [fails]. *)

val milp_instance : seed:int -> Lemur_placer.Plan.config * Lemur_placer.Plan.chain_input list
(** A scenario inside the MILP formulation's scope (linear chains of
    replicable NFs on the plain testbed) — for the MILP-vs-Optimal
    differential. Deterministic in [seed]. *)
