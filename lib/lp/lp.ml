type var = int

type sense = [ `Le | `Ge | `Eq ]

type outcome =
  | Optimal of { objective : float; values : float array }
  | Infeasible
  | Unbounded

type var_info = {
  name : string;
  lb : float;
  ub : float;
  integer : bool;
}

type row = { terms : (float * var) list; sense : sense; rhs : float }

type t = {
  mutable vars : var_info list; (* reversed *)
  mutable rows : row list; (* reversed *)
  mutable objective : (float * var) list;
  mutable maximize : bool;
}

(* Standard-form rows identified independently of their position, so a
   basis can be carried between two solves of the same problem whose
   bound rows differ (the branch-and-bound parent/child case): user rows
   keep their emit-order index, bound rows are keyed by variable. *)
type row_key = Kuser of int | Kub of var | Klb of var

type basis_elt = Bvar of var | Bslack of row_key

let create () = { vars = []; rows = []; objective = []; maximize = true }

let add_var t ?(lb = 0.0) ?(ub = infinity) ?(integer = false) ~name () =
  let id = List.length t.vars in
  t.vars <- { name; lb; ub; integer } :: t.vars;
  id

let add_constraint t terms sense rhs = t.rows <- { terms; sense; rhs } :: t.rows

let set_objective t ~maximize terms =
  t.objective <- terms;
  t.maximize <- maximize

let num_vars t = List.length t.vars
let num_constraints t = List.length t.rows

(* Standard form: maximize c.x, A.x <= b, x >= 0.
   - >= rows are negated; = rows become a <= pair;
   - finite bounds become rows;
   - minimization negates c.
   [bounds] tightens the declared variable bounds ([lb'] by max, [ub']
   by min) without touching [t] — branch-and-bound branches this way so
   user rows (and their keys) are identical across the whole tree. *)
let standard_form ?bounds t =
  let n = num_vars t in
  let vars = Array.of_list (List.rev t.vars) in
  let c = Array.make n 0.0 in
  List.iter
    (fun (coef, v) -> c.(v) <- c.(v) +. (if t.maximize then coef else -.coef))
    t.objective;
  let rows = ref [] and keys = ref [] and nuser = ref 0 in
  let emit key terms rhs =
    let coeffs = Array.make n 0.0 in
    List.iter (fun (coef, v) -> coeffs.(v) <- coeffs.(v) +. coef) terms;
    rows := (coeffs, rhs) :: !rows;
    keys := key :: !keys
  in
  let user terms rhs =
    let k = Kuser !nuser in
    incr nuser;
    emit k terms rhs
  in
  List.iter
    (fun { terms; sense; rhs } ->
      match sense with
      | `Le -> user terms rhs
      | `Ge -> user (List.map (fun (coef, v) -> (-.coef, v)) terms) (-.rhs)
      | `Eq ->
          user terms rhs;
          user (List.map (fun (coef, v) -> (-.coef, v)) terms) (-.rhs))
    (List.rev t.rows);
  Array.iteri
    (fun v info ->
      let lb, ub =
        match bounds with
        | None -> (info.lb, info.ub)
        | Some (lbs, ubs) -> (Float.max info.lb lbs.(v), Float.min info.ub ubs.(v))
      in
      if ub < infinity then emit (Kub v) [ (1.0, v) ] ub;
      if lb > 0.0 then emit (Klb v) [ (-1.0, v) ] (-.lb))
    vars;
  let row_list = List.rev !rows in
  let a = Array.of_list (List.map fst row_list) in
  let b = Array.of_list (List.map snd row_list) in
  (c, a, b, Array.of_list (List.rev !keys))

let outcome_of t = function
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded
  | Simplex.Optimal { objective; solution } ->
      let objective = if t.maximize then objective else -.objective in
      Optimal { objective; values = solution }

(* [bounds = (lbs, ubs)] tightens the declared variable bounds for this
   solve only ([lbs] by max, [ubs] by min; [neg_infinity] / [infinity]
   entries mean "no change"). On any mismatch of [warm] the solver falls
   back to a cold solve, so warm-starting never changes the outcome. *)
let solve_basis ?bounds ?warm t =
  let c, a, b, keys = standard_form ?bounds t in
  let n = Array.length c in
  let warm =
    match warm with
    | None -> None
    | Some elts ->
        (* Translate the carried basis into this problem's column space;
           keys absent here (a bound the parent did not have) drop out
           and their row keeps its slack. *)
        let index = Hashtbl.create 16 in
        Array.iteri (fun i k -> Hashtbl.replace index k (n + i)) keys;
        Some
          (Array.to_list elts
          |> List.filter_map (function
               | Bvar v -> if v >= 0 && v < n then Some v else None
               | Bslack k -> Hashtbl.find_opt index k)
          |> Array.of_list)
  in
  let result, final = Simplex.solve_basis ?warm ~c ~a ~b () in
  let final =
    Option.map
      (fun cols ->
        Array.to_list cols
        |> List.filter_map (fun col ->
               if col < 0 then None
               else if col < n then Some (Bvar col)
               else Some (Bslack keys.(col - n)))
        |> Array.of_list)
      final
  in
  (outcome_of t result, final)

let solve t = fst (solve_basis t)

let integer_vars t =
  List.rev t.vars
  |> List.mapi (fun i info -> (i, info))
  |> List.filter_map (fun (i, info) -> if info.integer then Some i else None)

let is_integral x = Float.abs (x -. Float.round x) < 1e-6

(* Branch and bound: depth-first, branching on the most fractional
   integer variable; bound by the LP relaxation. Branching tightens the
   per-node bound-override arrays (never adds rows), so every node
   solves the same user rows and — with [warm] — seeds the child's
   simplex from its parent's optimal basis: after one bound tightens,
   that basis is still dual feasible and a few dual-simplex pivots
   usually restore optimality (see docs/PERFORMANCE.md). *)
type milp_error =
  | Node_limit of { explored : int; max_nodes : int }
  | Unbounded_relaxation

let milp_error_to_string = function
  | Node_limit { explored; max_nodes } ->
      Printf.sprintf "node limit exceeded (%d explored, limit %d)" explored
        max_nodes
  | Unbounded_relaxation -> "unbounded relaxation"

exception Milp_stop of milp_error

let solve_milp ?(max_nodes = 100_000) ?(warm = true) t =
  let ints = integer_vars t in
  if ints = [] then Ok (solve t)
  else begin
    let tm = Lemur_telemetry.Telemetry.current () in
    let c_nodes = Lemur_telemetry.Telemetry.counter tm "lp.milp.nodes" in
    let c_warm = Lemur_telemetry.Telemetry.counter tm "lp.milp.warm_nodes" in
    let c_pruned = Lemur_telemetry.Telemetry.counter tm "lp.milp.bounds_pruned" in
    let c_infeasible = Lemur_telemetry.Telemetry.counter tm "lp.milp.infeasible_nodes" in
    let c_incumbents = Lemur_telemetry.Telemetry.counter tm "lp.milp.incumbents" in
    let n = num_vars t in
    let best : (float * float array) option ref = ref None in
    let nodes = ref 0 in
    let better obj =
      match !best with
      | None -> true
      | Some (b, _) -> if t.maximize then obj > b +. 1e-9 else obj < b -. 1e-9
    in
    let rec branch lbs ubs parent =
      incr nodes;
      Lemur_telemetry.Counter.incr c_nodes;
      if !nodes > max_nodes then
        raise (Milp_stop (Node_limit { explored = !nodes - 1; max_nodes }));
      let seed = if warm then parent else None in
      if seed <> None then Lemur_telemetry.Counter.incr c_warm;
      match solve_basis ~bounds:(lbs, ubs) ?warm:seed t with
      | Infeasible, _ -> Lemur_telemetry.Counter.incr c_infeasible
      | Unbounded, _ -> raise (Milp_stop Unbounded_relaxation)
      | Optimal { objective; values }, my_basis ->
          if not (better objective) then Lemur_telemetry.Counter.incr c_pruned
          else begin
            let fractional =
              List.filter (fun v -> not (is_integral values.(v))) ints
            in
            match
              Lemur_util.Listx.max_by
                (fun v ->
                  let f = values.(v) -. Float.of_int (int_of_float values.(v)) in
                  Float.min f (1.0 -. f))
                fractional
            with
            | None ->
                let rounded =
                  Array.mapi
                    (fun i x -> if List.mem i ints then Float.round x else x)
                    values
                in
                if better objective then begin
                  Lemur_telemetry.Counter.incr c_incumbents;
                  best := Some (objective, rounded)
                end
            | Some v ->
                let x = values.(v) in
                let lo = Float.of_int (int_of_float (floor x)) in
                let ubs' = Array.copy ubs in
                ubs'.(v) <- Float.min ubs.(v) lo;
                branch lbs ubs' my_basis;
                let lbs' = Array.copy lbs in
                lbs'.(v) <- Float.max lbs.(v) (lo +. 1.0);
                branch lbs' ubs my_basis
          end
    in
    match branch (Array.make n neg_infinity) (Array.make n infinity) None with
    | () -> (
        match !best with
        | None -> Ok Infeasible
        | Some (objective, values) -> Ok (Optimal { objective; values }))
    | exception Milp_stop e -> Error e
  end
