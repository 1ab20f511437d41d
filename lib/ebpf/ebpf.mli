(** eBPF program model for SmartNIC offload (§A.3).

    The paper's Netronome target imposes: 512-byte stack, ~4k loaded
    instructions, no function calls, and a verifier that rejects back
    edges. Lemur's NFs are written structurally (with loops and calls)
    and lowered by {!unroll_loops} and {!inline_calls} — exactly the
    workarounds §A.3 describes — before {!Verifier.check} admits them. *)

type instr =
  | Alu of string  (** arithmetic/logic op (annotation only) *)
  | Load of { stack_bytes : int }
      (** memory access reserving stack (0 for packet/map access) *)
  | Store of { stack_bytes : int }
  | Branch of { skip : int }  (** forward conditional jump *)
  | Loop of { iterations : int; body : instr list }
      (** structured counted loop — a back edge until unrolled *)
  | Call of string  (** call to a named function *)
  | Exit

type func = { fname : string; body : instr list }

type program = { name : string; main : instr list; functions : func list }

val instruction_count : program -> int
(** Flattened instruction count; a [Loop] counts its body once plus the
    branch (i.e., the pre-transform, as-written size), a [Call] counts 1. *)

val unroll_loops : program -> program
(** Replace every [Loop] by [iterations] copies of its body
    (recursively). *)

val inline_calls : program -> program
(** Substitute function bodies at call sites (recursively).
    @raise Invalid_argument on unknown functions or (mutual)
    recursion. *)

val lower : program -> program
(** [inline_calls] then [unroll_loops] — the full §A.3 pipeline. *)

module Verifier : sig
  type violation =
    | Too_many_instructions of { count : int; limit : int }
    | Stack_overflow of { bytes : int; limit : int }
    | Backward_jump  (** a [Loop] survived to verification *)
    | Function_call of string  (** a [Call] survived *)

  val check : Lemur_platform.Smartnic.t -> program -> violation list
  (** Empty list = program loads. *)

  val loads : Lemur_platform.Smartnic.t -> program -> bool

  val pp_violation : Format.formatter -> violation -> unit
end
