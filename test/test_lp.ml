(* Tests for the simplex LP solver and the branch-and-bound MILP. *)
open Lemur_lp

let check_optimal ?(tol = 1e-6) name expected outcome =
  match outcome with
  | Lp.Optimal { objective; _ } ->
      Alcotest.(check (float tol)) name expected objective
  | Lp.Infeasible -> Alcotest.failf "%s: unexpectedly infeasible" name
  | Lp.Unbounded -> Alcotest.failf "%s: unexpectedly unbounded" name

let milp_ok = function
  | Ok outcome -> outcome
  | Error e -> Alcotest.failf "milp gave up: %s" (Lp.milp_error_to_string e)

let test_basic_max () =
  (* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12 *)
  let p = Lp.create () in
  let x = Lp.add_var p ~name:"x" () in
  let y = Lp.add_var p ~name:"y" () in
  Lp.add_constraint p [ (1.0, x); (1.0, y) ] `Le 4.0;
  Lp.add_constraint p [ (1.0, x); (3.0, y) ] `Le 6.0;
  Lp.set_objective p ~maximize:true [ (3.0, x); (2.0, y) ];
  check_optimal "basic max" 12.0 (Lp.solve p)

let test_classic () =
  (* max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 -> obj = 21 (x=3, y=1.5) *)
  let p = Lp.create () in
  let x = Lp.add_var p ~name:"x" () in
  let y = Lp.add_var p ~name:"y" () in
  Lp.add_constraint p [ (6.0, x); (4.0, y) ] `Le 24.0;
  Lp.add_constraint p [ (1.0, x); (2.0, y) ] `Le 6.0;
  Lp.set_objective p ~maximize:true [ (5.0, x); (4.0, y) ];
  match Lp.solve p with
  | Lp.Optimal { objective; values } ->
      Alcotest.(check (float 1e-6)) "objective" 21.0 objective;
      Alcotest.(check (float 1e-6)) "x" 3.0 values.(0);
      Alcotest.(check (float 1e-6)) "y" 1.5 values.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_ge_and_eq () =
  (* min x + y s.t. x + y >= 3, x = 1 -> obj = 3 (x=1, y=2) *)
  let p = Lp.create () in
  let x = Lp.add_var p ~name:"x" () in
  let y = Lp.add_var p ~name:"y" () in
  Lp.add_constraint p [ (1.0, x); (1.0, y) ] `Ge 3.0;
  Lp.add_constraint p [ (1.0, x) ] `Eq 1.0;
  Lp.set_objective p ~maximize:false [ (1.0, x); (1.0, y) ];
  match Lp.solve p with
  | Lp.Optimal { objective; values } ->
      Alcotest.(check (float 1e-6)) "objective" 3.0 objective;
      Alcotest.(check (float 1e-6)) "x" 1.0 values.(0);
      Alcotest.(check (float 1e-6)) "y" 2.0 values.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p ~name:"x" () in
  Lp.add_constraint p [ (1.0, x) ] `Ge 5.0;
  Lp.add_constraint p [ (1.0, x) ] `Le 2.0;
  Lp.set_objective p ~maximize:true [ (1.0, x) ];
  match Lp.solve p with
  | Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let p = Lp.create () in
  let x = Lp.add_var p ~name:"x" () in
  let y = Lp.add_var p ~name:"y" () in
  Lp.add_constraint p [ (1.0, x); (-1.0, y) ] `Le 1.0;
  Lp.set_objective p ~maximize:true [ (1.0, x) ];
  match Lp.solve p with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_var_bounds () =
  (* max x + y with x in [0,2], y in [1,3], x + y <= 4 -> obj = 4 *)
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:2.0 ~name:"x" () in
  let y = Lp.add_var p ~lb:1.0 ~ub:3.0 ~name:"y" () in
  Lp.add_constraint p [ (1.0, x); (1.0, y) ] `Le 4.0;
  Lp.set_objective p ~maximize:true [ (1.0, x); (1.0, y) ];
  check_optimal "bounded" 4.0 (Lp.solve p)

let test_lb_infeasible () =
  (* lower bound conflicts with a row *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:5.0 ~name:"x" () in
  Lp.add_constraint p [ (1.0, x) ] `Le 2.0;
  Lp.set_objective p ~maximize:true [ (1.0, x) ];
  match Lp.solve p with
  | Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible from lb"

let test_rate_lp_shape () =
  (* The shape used by the Placer: maximize sum of marginals subject to
     per-chain caps and a shared NIC capacity. Chains A, B: est 10, 20;
     t_min 4, 6; NIC: rA*2 + rB <= 20 (A bounces twice).
     Optimal: rB = 20 - 2*rA; maximize rA + rB - 10 => maximize -rA => rA=4,
     rB = 12. Objective = (4-4) + (12-6) = 6. *)
  let p = Lp.create () in
  let ra = Lp.add_var p ~lb:4.0 ~ub:10.0 ~name:"rA" () in
  let rb = Lp.add_var p ~lb:6.0 ~ub:20.0 ~name:"rB" () in
  Lp.add_constraint p [ (2.0, ra); (1.0, rb) ] `Le 20.0;
  Lp.set_objective p ~maximize:true [ (1.0, ra); (1.0, rb) ];
  match Lp.solve p with
  | Lp.Optimal { values; _ } ->
      Alcotest.(check (float 1e-6)) "rA" 4.0 values.(0);
      Alcotest.(check (float 1e-6)) "rB" 12.0 values.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_degenerate_cycling () =
  (* A classic degenerate instance; Bland's rule must terminate. *)
  let p = Lp.create () in
  let x1 = Lp.add_var p ~name:"x1" () in
  let x2 = Lp.add_var p ~name:"x2" () in
  let x3 = Lp.add_var p ~name:"x3" () in
  let x4 = Lp.add_var p ~name:"x4" () in
  Lp.add_constraint p [ (0.5, x1); (-5.5, x2); (-2.5, x3); (9.0, x4) ] `Le 0.0;
  Lp.add_constraint p [ (0.5, x1); (-1.5, x2); (-0.5, x3); (1.0, x4) ] `Le 0.0;
  Lp.add_constraint p [ (1.0, x1) ] `Le 1.0;
  Lp.set_objective p ~maximize:true
    [ (10.0, x1); (-57.0, x2); (-9.0, x3); (-24.0, x4) ];
  check_optimal "degenerate (Beale)" 1.0 (Lp.solve p)

let test_mixed_scale_regression () =
  (* Regression: this exact instance (rates ~1e9 with unit loads) made
     phase 1 declare a feasible problem infeasible before tolerances
     were made scale-relative. *)
  let p = Lp.create () in
  let r1 = Lp.add_var p ~lb:1118238760.5614979 ~ub:4285045100.2140875 ~name:"r1" () in
  let r3 = Lp.add_var p ~lb:302116058.64852208 ~ub:1791471554.8196402 ~name:"r3" () in
  let r4 = Lp.add_var p ~lb:302116058.64852208 ~ub:1194314369.87976 ~name:"r4" () in
  Lp.add_constraint p
    [ (2.4400000000000004, r1); (2.0, r3); (3.0000000000000004, r4) ]
    `Le 40e9;
  Lp.set_objective p ~maximize:true [ (1.0, r1); (1.0, r3); (1.0, r4) ];
  match Lp.solve p with
  | Lp.Optimal { objective; _ } ->
      Alcotest.(check bool) "near 7.27G" true
        (objective > 7.2e9 && objective < 7.35e9)
  | Lp.Infeasible -> Alcotest.fail "scale-sensitive false infeasibility"
  | Lp.Unbounded -> Alcotest.fail "unbounded"

let test_milp_knapsack () =
  (* max 8a + 11b + 6c + 4d, 5a + 7b + 4c + 3d <= 14, binary -> 21 (b,c,d) *)
  let p = Lp.create () in
  let mk name = Lp.add_var p ~ub:1.0 ~integer:true ~name () in
  let a = mk "a" and b = mk "b" and c = mk "c" and d = mk "d" in
  Lp.add_constraint p [ (5.0, a); (7.0, b); (4.0, c); (3.0, d) ] `Le 14.0;
  Lp.set_objective p ~maximize:true [ (8.0, a); (11.0, b); (6.0, c); (4.0, d) ];
  check_optimal "knapsack" 21.0 (milp_ok (Lp.solve_milp p))

let test_milp_integrality () =
  (* LP relaxation gives fractional optimum; MILP must round properly.
     max x + y s.t. 2x + 2y <= 5, integers -> 2 (e.g. x=2,y=0). *)
  let p = Lp.create () in
  let x = Lp.add_var p ~integer:true ~name:"x" () in
  let y = Lp.add_var p ~integer:true ~name:"y" () in
  Lp.add_constraint p [ (2.0, x); (2.0, y) ] `Le 5.0;
  Lp.set_objective p ~maximize:true [ (1.0, x); (1.0, y) ];
  match milp_ok (Lp.solve_milp p) with
  | Lp.Optimal { objective; values } ->
      Alcotest.(check (float 1e-6)) "objective" 2.0 objective;
      Alcotest.(check bool) "integral" true
        (Array.for_all (fun v -> Float.abs (v -. Float.round v) < 1e-6) values)
  | _ -> Alcotest.fail "expected optimal"

let test_milp_node_limit () =
  (* The branch-and-bound give-up path must be a typed [Error], not an
     exception: the caller (Milp.solve) degrades to the heuristic. *)
  let p = Lp.create () in
  let mk name = Lp.add_var p ~ub:1.0 ~integer:true ~name () in
  let a = mk "a" and b = mk "b" and c = mk "c" and d = mk "d" in
  Lp.add_constraint p [ (5.0, a); (7.0, b); (4.0, c); (3.0, d) ] `Le 14.0;
  Lp.set_objective p ~maximize:true [ (8.0, a); (11.0, b); (6.0, c); (4.0, d) ];
  match Lp.solve_milp ~max_nodes:1 p with
  | Error (Lp.Node_limit { explored; max_nodes }) ->
      Alcotest.(check int) "limit echoed" 1 max_nodes;
      Alcotest.(check bool) "explored counted" true (explored >= 1)
  | Error Lp.Unbounded_relaxation -> Alcotest.fail "wrong error variant"
  | Ok _ -> Alcotest.fail "expected a node-limit give-up"

let test_milp_unbounded_relaxation () =
  let p = Lp.create () in
  let x = Lp.add_var p ~integer:true ~name:"x" () in
  Lp.set_objective p ~maximize:true [ (1.0, x) ];
  match Lp.solve_milp p with
  | Error Lp.Unbounded_relaxation -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Lp.milp_error_to_string e)
  | Ok _ -> Alcotest.fail "expected an unbounded-relaxation error"

(* The standard-form corpus the pricing and warm-start tests sweep:
   every shape the Lp layer emits (Le/Ge/Eq rows, bounds-as-rows,
   negative rhs, degeneracy, mixed scales) in raw [Simplex] form. *)
let simplex_corpus =
  [
    ( "basic",
      [| 3.0; 2.0 |],
      [| [| 1.0; 1.0 |]; [| 1.0; 3.0 |] |],
      [| 4.0; 6.0 |] );
    ( "classic",
      [| 5.0; 4.0 |],
      [| [| 6.0; 4.0 |]; [| 1.0; 2.0 |] |],
      [| 24.0; 6.0 |] );
    ( "negative rhs",
      [| -1.0; -1.0 |],
      [| [| -1.0; -1.0 |]; [| 1.0; 0.0 |]; [| -1.0; 0.0 |] |],
      [| -3.0; 1.0; -1.0 |] );
    ( "beale degenerate",
      [| 10.0; -57.0; -9.0; -24.0 |],
      [|
        [| 0.5; -5.5; -2.5; 9.0 |];
        [| 0.5; -1.5; -0.5; 1.0 |];
        [| 1.0; 0.0; 0.0; 0.0 |];
      |],
      [| 0.0; 0.0; 1.0 |] );
    ( "mixed scale",
      [| 1.0; 1.0; 1.0 |],
      [|
        [| 2.44; 2.0; 3.0 |];
        [| -1.0; 0.0; 0.0 |];
        [| 0.0; -1.0; 0.0 |];
        [| 0.0; 0.0; -1.0 |];
      |],
      [| 40e9; -1.1e9; -3.0e8; -3.0e8 |] );
    ("infeasible", [| 1.0 |], [| [| -1.0 |]; [| 1.0 |] |], [| -5.0; 2.0 |]);
    ("unbounded", [| 1.0; 0.0 |], [| [| 1.0; -1.0 |] |], [| 1.0 |]);
  ]

(* The pricing corpus: five fixed instances (Beale's cycling example and
   a rate-LP-shaped one among them), then seeded random polytopes sized
   like the placer's rate LPs and MILP relaxations, and degenerate
   assignment polytopes, where the pricing rule matters most. Its pivot
   totals are pinned, so a pricing change shows up as a count. *)
let pricing_corpus =
  let fixed =
    [
      ([| 3.0; 2.0 |], [| [| 1.0; 1.0 |]; [| 1.0; 3.0 |] |], [| 4.0; 6.0 |]);
      ( [| 3.0; 5.0 |],
        [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |]; [| 3.0; 2.0 |] |],
        [| 4.0; 12.0; 18.0 |] );
      ( [| 1.0; 1.0 |],
        [| [| -1.0; -1.0 |]; [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |],
        [| -2.0; 3.0; 3.0 |] );
      ( [| 0.75; -150.0; 0.02; -6.0 |],
        [|
          [| 0.25; -60.0; -0.04; 9.0 |];
          [| 0.5; -90.0; -0.02; 3.0 |];
          [| 0.0; 0.0; 1.0; 0.0 |];
        |],
        [| 0.0; 0.0; 1.0 |] );
      ( [| 1.0; 1.0 |],
        [| [| 1.0; 1.0 |]; [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |],
        [| 40e9; 25e9; 25e9 |] );
    ]
  in
  let rng = Lemur_util.Prng.create ~seed:42 in
  let uniform lo hi = Lemur_util.Prng.uniform rng ~lo ~hi in
  (* mixed-sign rows put the optimum many vertices from the slack basis;
     about one rhs in six is negative, forcing phase 1; a box row keeps
     every instance bounded *)
  let random ~count ~nmax ~mmax =
    List.init count (fun _ ->
        let n = 2 + Lemur_util.Prng.int rng nmax in
        let m = 2 + Lemur_util.Prng.int rng mmax in
        let c = Array.init n (fun _ -> uniform (-2.0) 10.0) in
        let a = Array.init m (fun _ -> Array.init n (fun _ -> uniform (-5.0) 10.0)) in
        let b = Array.init m (fun _ -> uniform (-10.0) 50.0) in
        (c, Array.append a [| Array.make n 1.0 |], Array.append b [| 100.0 |]))
  in
  (* k x k doubly-stochastic polytopes, like the MILP's assignment rows *)
  let assignment ~count ~kmax =
    List.init count (fun _ ->
        let k = 3 + Lemur_util.Prng.int rng (kmax - 2) in
        let c = Array.init (k * k) (fun _ -> Lemur_util.Prng.float rng 10.0) in
        let row pick = Array.init (k * k) (fun v -> if pick v then 1.0 else 0.0) in
        let a =
          Array.append
            (Array.init k (fun i -> row (fun v -> v / k = i)))
            (Array.init k (fun j -> row (fun v -> v mod k = j)))
        in
        (c, a, Array.make (2 * k) 1.0))
  in
  (* the generators draw in this order: assignment, large, small *)
  let assignments = assignment ~count:10 ~kmax:9 in
  let large = random ~count:10 ~nmax:40 ~mmax:60 in
  let small = random ~count:20 ~nmax:6 ~mmax:8 in
  List.concat_map
    (fun (group, instances) ->
      List.mapi
        (fun i (c, a, b) -> (Printf.sprintf "%s %d" group i, c, a, b))
        instances)
    [
      ("fixed", fixed); ("small", small); ("large", large);
      ("assignment", assignments);
    ]

(* Solve [corpus] under [pricing] against a fresh telemetry registry:
   the outcomes, and the pivots of every simplex phase summed. *)
let solve_counted pricing corpus =
  let module Telemetry = Lemur_telemetry.Telemetry in
  let tm = Telemetry.create () in
  let prev = Telemetry.current () in
  Telemetry.set_current tm;
  let solve (_, c, a, b) = fst (Simplex.solve_basis ~pricing ~c ~a ~b ()) in
  let outcomes =
    Fun.protect ~finally:(fun () -> Telemetry.set_current prev) (fun () ->
        List.map solve corpus)
  in
  let pivots phase =
    Lemur_telemetry.Counter.value
      (Telemetry.counter tm ("lp.simplex." ^ phase ^ "_pivots"))
  in
  ( outcomes,
    List.fold_left ( + ) 0
      (List.map pivots
         [ "phase1"; "phase2"; "warm_install"; "warm_dual"; "warm_phase2" ]) )

let test_dantzig_matches_bland () =
  (* Dantzig pricing (with its Bland anti-cycling fallback) must land on
     the same optimum — or the same infeasible/unbounded verdict — as
     pure Bland on every corpus instance, in about a third of Bland's
     pivots on the pricing corpus. *)
  let agree corpus =
    let bland, bland_pivots = solve_counted Simplex.Bland corpus in
    let dantzig, dantzig_pivots = solve_counted Simplex.Dantzig corpus in
    List.iter2
      (fun (name, _, _, _) outcomes ->
        match outcomes with
        | ( Simplex.Optimal { objective = ob; _ },
            Simplex.Optimal { objective = od; _ } ) ->
            let scale = Float.max 1.0 (Float.abs ob) in
            Alcotest.(check bool)
              (Printf.sprintf "%s: objectives agree (%g vs %g)" name ob od)
              true
              (Float.abs (ob -. od) <= 1e-6 *. scale)
        | Simplex.Infeasible, Simplex.Infeasible -> ()
        | Simplex.Unbounded, Simplex.Unbounded -> ()
        | _ -> Alcotest.failf "%s: pricing rules disagree on outcome class" name)
      corpus
      (List.combine bland dantzig);
    (bland_pivots, dantzig_pivots)
  in
  ignore (agree simplex_corpus);
  let bland_pivots, dantzig_pivots = agree pricing_corpus in
  Alcotest.(check int) "Dantzig pivots on the pricing corpus" 181
    dantzig_pivots;
  Alcotest.(check int) "Bland pivots on the pricing corpus" 546 bland_pivots

let test_warm_basis_reuse () =
  (* Re-solving from the exported optimal basis must reproduce the cold
     optimum, both for the identical instance and after nudging the rhs
     (the branch-and-bound pattern: same rows, tightened bounds). *)
  List.iter
    (fun (name, c, a, b) ->
      match Simplex.solve_basis ~c ~a ~b () with
      | Simplex.Optimal { objective = cold; _ }, Some basis ->
          (match Simplex.solve_basis ~warm:basis ~c ~a ~b () with
          | Simplex.Optimal { objective = warm; _ }, _ ->
              let scale = Float.max 1.0 (Float.abs cold) in
              Alcotest.(check bool)
                (Printf.sprintf "%s: warm re-solve matches (%g vs %g)" name cold
                   warm)
                true
                (Float.abs (cold -. warm) <= 1e-6 *. scale)
          | _ -> Alcotest.failf "%s: warm re-solve lost optimality" name);
          (* Tighten every rhs slightly: the old basis is dual feasible,
             so the warm path should recover the new optimum too. *)
          let b' = Array.map (fun bi -> bi -. (0.05 *. Float.abs bi)) b in
          let cold' = fst (Simplex.solve_basis ~c ~a ~b:b' ()) in
          let warm' = fst (Simplex.solve_basis ~warm:basis ~c ~a ~b:b' ()) in
          (match (cold', warm') with
          | ( Simplex.Optimal { objective = oc; _ },
              Simplex.Optimal { objective = ow; _ } ) ->
              let scale = Float.max 1.0 (Float.abs oc) in
              Alcotest.(check bool)
                (Printf.sprintf "%s: warm tightened-rhs matches (%g vs %g)" name
                   oc ow)
                true
                (Float.abs (oc -. ow) <= 1e-6 *. scale)
          | Simplex.Infeasible, Simplex.Infeasible -> ()
          | Simplex.Unbounded, Simplex.Unbounded -> ()
          | _ ->
              Alcotest.failf "%s: warm and cold disagree after rhs tightening"
                name)
      | Simplex.Optimal _, None ->
          Alcotest.failf "%s: optimal solve exported no basis" name
      | (Simplex.Infeasible | Simplex.Unbounded), _ -> ())
    simplex_corpus

let test_milp_warm_matches_cold () =
  (* Warm-started branch and bound may explore a different tree (equal
     optima change the most-fractional branch) but must reach the same
     objective as the cold solver on every instance. *)
  let knapsack () =
    let p = Lp.create () in
    let mk name = Lp.add_var p ~ub:1.0 ~integer:true ~name () in
    let a = mk "a" and b = mk "b" and c = mk "c" and d = mk "d" in
    Lp.add_constraint p [ (5.0, a); (7.0, b); (4.0, c); (3.0, d) ] `Le 14.0;
    Lp.set_objective p ~maximize:true
      [ (8.0, a); (11.0, b); (6.0, c); (4.0, d) ];
    p
  in
  let integrality () =
    let p = Lp.create () in
    let x = Lp.add_var p ~integer:true ~name:"x" () in
    let y = Lp.add_var p ~integer:true ~name:"y" () in
    Lp.add_constraint p [ (2.0, x); (2.0, y) ] `Le 5.0;
    Lp.set_objective p ~maximize:true [ (1.0, x); (1.0, y) ];
    p
  in
  let mixed () =
    (* Integer cores alongside a continuous rate, the placer's shape. *)
    let p = Lp.create () in
    let k1 = Lp.add_var p ~lb:1.0 ~ub:8.0 ~integer:true ~name:"k1" () in
    let k2 = Lp.add_var p ~lb:1.0 ~ub:8.0 ~integer:true ~name:"k2" () in
    let r = Lp.add_var p ~ub:20.0 ~name:"r" () in
    Lp.add_constraint p [ (1.0, k1); (1.0, k2) ] `Le 10.0;
    Lp.add_constraint p [ (1.0, r); (-2.5, k1) ] `Le 0.0;
    Lp.add_constraint p [ (1.0, r); (-3.5, k2) ] `Le 0.0;
    Lp.set_objective p ~maximize:true
      [ (1.0, r); (-0.1, k1); (-0.1, k2) ];
    p
  in
  List.iter
    (fun (name, mk) ->
      let cold = milp_ok (Lp.solve_milp ~warm:false (mk ())) in
      let warm = milp_ok (Lp.solve_milp ~warm:true (mk ())) in
      match (cold, warm) with
      | Lp.Optimal { objective = oc; _ }, Lp.Optimal { objective = ow; _ } ->
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "%s: warm matches cold" name)
            oc ow
      | Lp.Infeasible, Lp.Infeasible -> ()
      | Lp.Unbounded, Lp.Unbounded -> ()
      | _ -> Alcotest.failf "%s: warm and cold disagree on outcome class" name)
    [ ("knapsack", knapsack); ("integrality", integrality); ("mixed", mixed) ]

(* Random-LP property: simplex objective matches a brute-force grid search
   within discretization error, and never reports a worse solution. *)
let qcheck_cases =
  let open QCheck in
  let gen_lp =
    Gen.(
      let* n = int_range 1 3 in
      let* m = int_range 1 4 in
      let* c = array_size (return n) (float_range 0.1 5.0) in
      let* a = array_size (return m) (array_size (return n) (float_range 0.0 3.0)) in
      let* b = array_size (return m) (float_range 1.0 10.0) in
      return (c, a, b))
  in
  let arb = make ~print:(fun _ -> "<lp>") gen_lp in
  [
    Test.make ~name:"simplex >= grid search lower bound" ~count:60 arb
      (fun (c, a, b) ->
        let n = Array.length c in
        (* grid search over [0, 10]^n in steps of 0.5 *)
        let best = ref 0.0 in
        let steps = 21 in
        let rec enum point dim =
          if dim = n then begin
            let feasible =
              Array.for_all2
                (fun row bi ->
                  let lhs = ref 0.0 in
                  Array.iteri (fun j x -> lhs := !lhs +. (row.(j) *. x)) point;
                  !lhs <= bi +. 1e-9)
                a b
            in
            if feasible then begin
              let obj = ref 0.0 in
              Array.iteri (fun j x -> obj := !obj +. (c.(j) *. x)) point;
              if !obj > !best then best := !obj
            end
          end
          else
            for k = 0 to steps - 1 do
              point.(dim) <- 0.5 *. float_of_int k;
              enum point (dim + 1)
            done
        in
        enum (Array.make n 0.0) 0;
        match Simplex.solve ~c ~a ~b with
        | Simplex.Optimal { objective; solution } ->
            let feasible =
              Array.for_all2
                (fun row bi ->
                  let lhs = ref 0.0 in
                  Array.iteri (fun j x -> lhs := !lhs +. (row.(j) *. x)) solution;
                  !lhs <= bi +. 1e-6)
                a b
            in
            feasible && objective >= !best -. 1e-6
        | Simplex.Unbounded -> true (* grid can't certify unboundedness *)
        | Simplex.Infeasible -> false (* x = 0 is always feasible here *));
  ]

let suite =
  [
    Alcotest.test_case "basic max" `Quick test_basic_max;
    Alcotest.test_case "classic" `Quick test_classic;
    Alcotest.test_case "ge and eq rows" `Quick test_ge_and_eq;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "variable bounds" `Quick test_var_bounds;
    Alcotest.test_case "lb infeasible" `Quick test_lb_infeasible;
    Alcotest.test_case "placer rate LP shape" `Quick test_rate_lp_shape;
    Alcotest.test_case "degenerate no cycling" `Quick test_degenerate_cycling;
    Alcotest.test_case "mixed-scale regression" `Quick test_mixed_scale_regression;
    Alcotest.test_case "milp knapsack" `Quick test_milp_knapsack;
    Alcotest.test_case "milp integrality" `Quick test_milp_integrality;
    Alcotest.test_case "milp node limit" `Quick test_milp_node_limit;
    Alcotest.test_case "milp unbounded relaxation" `Quick
      test_milp_unbounded_relaxation;
    Alcotest.test_case "dantzig matches bland" `Quick test_dantzig_matches_bland;
    Alcotest.test_case "warm basis reuse" `Quick test_warm_basis_reuse;
    Alcotest.test_case "milp warm matches cold" `Quick test_milp_warm_matches_cold;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases
