(** An OCaml 5 domain pool with a deterministic, ordered, work-stealing
    [map].

    [map] materializes the input into an indexed array and lets every
    executor — the resident worker domains plus the submitting domain
    itself — claim small chunks of indices off a shared atomic cursor.
    Claiming is self-scheduling: a 100x-cost straggler occupies one
    executor for one chunk while the others drain the rest, so corpus
    skew costs at most one item's latency, not the whole tail. Results
    merge back {e by index}, so the output order (and any digest
    computed from it) is byte-identical for every [~domains], which is
    what lets the fuzz harness promise that [-j 4] and [-j 1] match
    byte for byte. Items must carry their own randomness (a per-item
    seed) rather than read shared mutable state.

    Workers must never tear down the whole run: each item's exceptions
    are caught and surfaced as a typed [Error], forcing callers to
    decide per item instead of crashing mid-corpus.

    The pool behind [map] is process-global and only ever {e grows}: a
    larger [~domains] spawns the missing workers, a smaller one simply
    admits fewer of the resident workers into the run — no domain
    churn either way. Calls from inside a worker domain (nested
    parallelism) run sequentially inline — the pool never deadlocks on
    itself. [~domains:1] and single-item inputs also take the purely
    sequential path: no domains are spawned and no locks are taken. *)

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

val pool_size : unit -> int
(** Resident worker domains (0 before the first parallel [map]). The
    pool never shrinks, so this is the high-water
    mark of [~domains - 1] across all calls. *)
