(** The NF vocabulary of Table 3: fourteen network functions, their
    specifications, and per-target availability.

    The paper artificially restricts IPv4Fwd to P4 for the evaluation
    (Table 3 caption); {!targets} reflects the real capability matrix and
    {!targets_eval} the restricted one used by every experiment. *)

type t =
  | Encrypt  (** 128-bit AES-CBC payload encryption *)
  | Decrypt  (** 128-bit AES-CBC payload decryption *)
  | Fast_encrypt  (** 128-bit ChaCha (offloadable to the SmartNIC) *)
  | Dedup  (** network redundancy elimination (EndRE-style) *)
  | Tunnel  (** push VLAN tag *)
  | Detunnel  (** pop VLAN tag *)
  | Ipv4_fwd  (** IP address match / forwarding *)
  | Limiter  (** token-bucket rate limiter *)
  | Url_filter  (** HTML/URL filter *)
  | Monitor  (** per-flow statistics *)
  | Nat  (** carrier-grade NAT *)
  | Lb  (** layer-4 load balancer *)
  | Bpf  (** flexible BPF match (called Match in Table 3) *)
  | Acl  (** ACL on src/dst fields *)

val all : t list

val index : t -> int
(** Position of the kind in {!all}, in O(1). *)

val name : t -> string
(** Canonical name as written in chain specifications (e.g. ["ACL"],
    ["IPv4Fwd"], ["BPF"]). *)

val of_name : string -> t option
(** Case-insensitive lookup, accepting a few aliases (["Match"],
    ["FastEncrypt"], ["Fast Enc."]). *)

val spec_summary : t -> string
(** The "Spec" column of Table 3. *)

val targets : t -> Target.t list
(** Real capability matrix (Table 3 bullets). *)

val targets_eval : t -> Target.t list
(** Capability matrix used in the evaluation: IPv4Fwd is P4-only. *)

val stateful : t -> bool
(** NFs carrying cross-packet state (NAT, Monitor, Limiter, Dedup, LB). *)

val replicable : t -> bool
(** Whether Placer may replicate the NF across cores. The two
    non-replicable NFs (bold in Table 3) are [Limiter] and [Monitor]:
    their state is global and cannot be partitioned by flow. *)

val equal : t -> t -> bool
