(** Abstract syntax for Lemur's chain-specification language (§2).

    The language is BESS-inspired dataflow: NF names chained with [->],
    optional parameters, conditional branching with merge-back, instance
    declarations, and per-chain SLO annotations:

    {v
    acl0 = ACL(rules=[{'dst_ip': '10.0.0.0/8', 'drop': False}])
    chain c1 slo(tmin='1Gbps', tmax='100Gbps') =
      acl0 -> [{'vlan_tag': 1, Encrypt}, {'weight': 0.5}] -> IPv4Fwd
    v}

    A branch element is a list of arms; each arm carries match conditions
    (and an optional ['weight'] giving its traffic fraction) and a
    sub-pipeline, possibly empty (a pass-through arm). Arms merge at the
    element following the branch, or exit if the branch ends the
    pipeline. *)

type atom = { ref_name : string; args : Lemur_nf.Params.t option }
(** [ref_name] is an NF kind name or a previously declared instance
    name; [args] is [Some _] exactly when the source wrote parentheses. *)

type element = Atom of atom | Branch of arm list

and arm = {
  conds : (string * Lemur_nf.Params.value) list;
      (** match conditions, e.g. [('vlan_tag', Int 1)]. *)
  weight : float option;  (** declared traffic fraction of the arm. *)
  body : element list;  (** possibly empty (pass-through). *)
}

type pipeline = element list

type statement =
  | Decl of string * atom  (** [name = NF(args)] *)
  | Macro of string * Lemur_nf.Params.value
      (** [name = <literal>] — a reusable argument value (§A.1.1);
          referenced by bare name in later argument positions *)
  | Subchain of { name : string; pipeline : pipeline }
      (** [subchain sub8 = Detunnel -> Encrypt -> IPv4Fwd] — a reusable
          pipeline fragment (Table 2's Subchains 6-8), spliced wherever
          its name appears as an atom *)
  | Chain of {
      name : string;
      aggregate : Lemur_nf.Params.t option;
          (** raw [aggregate(...)] args: the traffic aggregate (5-tuple
              fields) the chain applies to *)
      slo_args : Lemur_nf.Params.t option;  (** raw [slo(...)] args *)
      pipeline : pipeline;
    }

type t = statement list

val pp_pipeline : Format.formatter -> pipeline -> unit
