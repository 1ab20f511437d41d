(** BESS pipeline module graph (§A.1): what the meta-compiler's BESS
    code generator assembles on each server.

    Shared modules: [Port_inc]/[Port_out] poll/push the NIC in poll
    mode; [Nsh_decap] demultiplexes packets to the right contiguous
    subgroup (and strips NSH, which BESS NFs don't understand);
    [Nsh_encap] re-tags the next SPI/SI before the packet leaves.
    A replicated subgroup gets a [Core_lb] in front of its per-core
    instances. *)

type module_kind =
  | Port_inc
  | Port_out
  | Nsh_decap  (** shared demultiplexer, runs on the reserved core *)
  | Nsh_encap
      (** re-tags the packet from its carried NSH metadata (the SI was
          advanced by the switch steering entry for this hop) *)
  | Nf of { instance : Lemur_nf.Instance.t }
  | Core_lb of { fanout : int }  (** steers into subgroup replicas *)
  | Queue of { size : int }

type m = { module_id : string; kind : module_kind }

type t

val create : server:string -> t
val add : t -> m -> unit
(** @raise Invalid_argument on duplicate ids. *)

val connect : t -> src:string -> dst:string -> unit
(** @raise Invalid_argument on unknown ids. *)

val modules : t -> m list
val connections : t -> (string * string) list

val validate : t -> (unit, string) result
(** Structural sanity: exactly one [Port_inc] and one [Port_out]; every
    module reachable from [Port_inc]; every non-[Port_out] module has a
    successor. *)
