(** A deterministic, ordered fork-join [map] over OCaml 5 domains.

    Each parallel [map] spawns its own helper domains, at most
    [~domains - 1] and at most one fewer than the items, and joins them
    before it returns. The calling domain and the helpers claim item
    indices one at a time off a shared atomic counter, so a 100x-cost
    straggler occupies one executor while the others drain the rest.
    Results merge back {e by index}, so the output order (and any digest
    computed from it) is byte-identical for every [~domains], which is
    what lets the fuzz harness promise that [-j 4] and [-j 1] match
    byte for byte. Items must carry their own randomness (a per-item
    seed) rather than read shared mutable state.

    Items must never tear down the whole map: each item's exceptions
    are caught and surfaced as a typed [Error], forcing callers to
    decide per item instead of crashing mid-corpus.

    Nothing stays resident between calls. A [map] called from inside an
    item (nested parallelism) runs sequentially inline, as do
    [~domains:1] and inputs of at most one item: no domains are
    spawned. *)

type job_error = {
  job_index : int;  (** position of the failing item in the input list *)
  message : string;  (** [Printexc.to_string] of the exception *)
  backtrace : string;
}

val error_to_string : job_error -> string

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()], clamped to [\[1; 64\]]. *)

val set_default : int -> unit
(** Set the domain count used when [map] is called without [~domains]
    (the CLI [-j] flag lands here). Clamped to [\[1; 64\]]. Initially
    [1], so library code stays sequential unless a caller opts in. *)

val get_default : unit -> int

val map : ?domains:int -> ('a -> 'b) -> 'a list -> ('b, job_error) result list
(** Ordered parallel map. [Ok] and [Error] results appear at the index
    of the item that produced them. [?domains] defaults to
    {!get_default}. *)

val all : ('b, job_error) result list -> ('b list, job_error) result
(** [Ok] of every payload in order, or the first [Error]. *)
