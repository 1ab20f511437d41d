(** Failure handling (§7 "Failures"): the rack edits.

    Lemur leverages on-path hardware; when an accelerator fails it
    re-routes and re-places, falling back to server-based NFs when the
    degraded rack lacks offload resources. This module is only the pure
    rack edit; re-placing on the degraded rack, and recovering, is the
    runtime engine's job ([Lemur_runtime.Engine]). [lemur failover]
    precomputes one fallback per anticipated failure the same way:
    {!degrade}, then {!Deployment.deploy}. *)

type failure =
  | Pisa_failed  (** ToR keeps forwarding but its pipeline is unusable *)
  | Smartnic_failed
  | Ofswitch_failed
  | Server_failed of string

val to_string : failure -> string
(** The element's name: [pisa], [smartnic], [ofswitch], or the server's
    own name. *)

val of_string : string -> (failure, string) result
(** The inverse of {!to_string}, case-insensitive: server names must
    start with [server]. *)

val degrade :
  Lemur_topology.Topology.t -> failure -> (Lemur_topology.Topology.t, string) result
(** The rack after the failure. [Error] when the failed element is not
    present, or the last server fails (nothing left to run software NFs). *)

val pp_failure : Format.formatter -> failure -> unit
