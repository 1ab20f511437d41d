(** A small linear-programming interface.

    The Placer's rate-maximization step (§3.2 of the paper, "Finding
    Maximum Marginal Throughput") is an LP over per-chain rates with link
    capacity and SLO bound constraints. The sealed environment has no
    external solver, so Lemur ships its own dense two-phase simplex (see
    {!Simplex}) behind this problem-builder interface, plus a small
    branch-and-bound MILP used for the paper's MILP formulation
    cross-check.

    Variables are indexed by the order of {!add_var} calls. All variables
    are non-negative; upper bounds are expressed as constraints by the
    builder. *)

type t
(** A problem under construction. *)

type var = int

type sense = [ `Le | `Ge | `Eq ]

type outcome =
  | Optimal of { objective : float; values : float array }
  | Infeasible
  | Unbounded

val create : unit -> t

val add_var : t -> ?lb:float -> ?ub:float -> ?integer:bool -> name:string -> unit -> var
(** Fresh non-negative variable. [lb] defaults to 0, [ub] to +inf.
    [integer] marks the variable for branch-and-bound in {!solve_milp}. *)

val add_constraint : t -> (float * var) list -> sense -> float -> unit
(** [add_constraint t terms sense rhs] adds [Σ coef·var (<=|>=|=) rhs]. *)

val set_objective : t -> maximize:bool -> (float * var) list -> unit

val num_vars : t -> int

val num_constraints : t -> int
(** Rows added so far (bound constraints not included). *)

val solve : t -> outcome
(** Solve the LP relaxation (integrality markers ignored). *)

type milp_error =
  | Node_limit of { explored : int; max_nodes : int }
      (** The branch-and-bound search hit [max_nodes] before proving
          optimality. *)
  | Unbounded_relaxation
      (** Some node's LP relaxation was unbounded, so the MILP has no
          finite optimum to find. *)

val milp_error_to_string : milp_error -> string

val solve_milp :
  ?max_nodes:int -> ?warm:bool -> t -> (outcome, milp_error) result
(** Branch-and-bound on the variables marked [integer]. [max_nodes]
    bounds the search (default 100_000); exceeding it returns
    [Error (Node_limit _)] — never an exception, so a stuck search can't
    kill the run that issued it: callers degrade to their heuristic
    plan instead (see {!Lemur_placer.Milp}). [warm] (default [true])
    re-solves each child node from its parent's optimal basis
    (typically a handful of dual pivots instead of a full two-phase
    solve); pass [false] to force cold per-node solves (the
    differential baseline). *)
