(* The datacenter-scale bench behind `dune exec bench/main.exe -- scale`:
   builds a synthetic spine/leaf fabric, expands a tenant population
   into thousands of chain demands, runs the sharded placer twice —
   sequentially (-j 1) and fanned out over N pool domains — and gates
   three properties into BENCH_scale.json:

   - determinism (hard gate): the fabric-placement digest at -j N must
     be byte-identical to -j 1;
   - correctness (hard gate): the -j N placement must pass the
     fabric-level oracle (Lemur_check.Fabric_check) — every shard
     oracle-clean, uplink budgets respected, no unbudgeted cross-rack
     chain;
   - wall clock (hard gate): the parallel run must finish within the
     mode's budget. The full scenario is the ROADMAP target — 50 racks
     / 2000 chains within 300 s; --quick shrinks it to 4 racks / 64
     chains within 60 s for CI smoke.

   Wall-clock budgets are generous (the gate catches order-of-magnitude
   regressions, not noise); the JSON records the honest timing either
   way. *)

module Fabric = Lemur_topology.Fabric
module Shard = Lemur_placer.Shard
module Fabric_check = Lemur_check.Fabric_check
module Pool = Lemur_util.Pool
module Json = Lemur_telemetry.Json

let now = Unix.gettimeofday

let run_json ~jobs ~chains (fp : Shard.fabric_placement) wall =
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("wall_s", Json.Float wall);
      ( "chains_per_sec",
        Json.Float (if wall > 0.0 then float_of_int chains /. wall else 0.0) );
      ("repair_moves", Json.Int (List.length fp.Shard.repairs));
      ( "cross_rack_chains",
        Json.Int
          (List.length
             (List.filter
                (fun (a : Shard.assignment) -> a.Shard.a_cross)
                fp.Shard.assignments)) );
      ("total_rate_gbps", Json.Float (fp.Shard.total_rate /. 1e9));
      ("total_marginal_gbps", Json.Float (fp.Shard.total_marginal /. 1e9));
      ("cores_used", Json.Int fp.Shard.cores_used);
      ("digest", Json.String (Shard.digest fp));
    ]

(* Place on [jobs] domains and report; an infeasible outcome digests to
   a constant, so both job counts failing alike still count as
   deterministic and the oracle gate reports the infeasibility. *)
let timed_place cfg demands jobs =
  let t0 = now () in
  let outcome = Shard.place ~jobs cfg demands in
  let wall = Lemur_util.Timing.duration ~start:t0 ~stop:(now ()) in
  match outcome with
  | Shard.Infeasible { errors; repairs } ->
      Printf.printf "  -j %d: INFEASIBLE after %.2fs (%d repair move(s)):\n"
        jobs wall (List.length repairs);
      List.iter
        (fun e -> Printf.printf "    %s\n" (Shard.error_to_string e))
        errors;
      ((None, wall), "infeasible")
  | Shard.Placed fp ->
      Printf.printf "  -j %d: %.2fs, %d repair move(s), %d cross-rack\n%!"
        jobs wall
        (List.length fp.Shard.repairs)
        (List.length
           (List.filter
              (fun (a : Shard.assignment) -> a.Shard.a_cross)
              fp.Shard.assignments));
      ((Some fp, wall), Shard.digest fp)

let main args =
  let o = Bench_gate.parse ~seed:1 "scale" args in
  let quick = o.Bench_gate.quick and jobs = o.Bench_gate.jobs in
  let seed = Option.get o.Bench_gate.seed in
  let racks, chains, tenants, budget =
    if quick then (4, 64, 8, 60.0) else (50, 2000, 100, 300.0)
  in
  let fabric = Fabric.synthetic ~racks () in
  let demands =
    Fabric.expand (Fabric.synthetic_tenants ~seed ~tenants ~chains fabric)
  in
  let cfg = Shard.default_config fabric in
  Printf.printf
    "## scale: %d rack(s) (%d NF cores), %d tenant(s) -> %d chain(s), %.1f \
     Gbps aggregate floor, -j 1 vs -j %d (host reports %d domain(s))\n%!"
    racks
    (Fabric.total_nf_cores fabric)
    tenants (List.length demands)
    (Fabric.total_demand demands /. 1e9)
    jobs
    (Pool.recommended_domains ());
  let ((placed, wall), _), determinism =
    Bench_gate.determinism ~jobs (timed_place cfg demands)
  in
  let oracle_violations =
    match placed with
    | None -> [ "placement infeasible" ]
    | Some fp -> (
        match Fabric_check.check fp with
        | Ok () -> []
        | Error vs ->
            List.map
              (fun v -> Format.asprintf "%a" Fabric_check.pp_violation v)
              vs)
  in
  List.iteri
    (fun i v -> if i < 10 then Printf.printf "  oracle: %s\n" v)
    oracle_violations;
  let within_budget = wall <= budget in
  Bench_gate.finish o
    [
      determinism;
      Bench_gate.gate "oracle" (oracle_violations = [])
        (match oracle_violations with
        | [] -> "clean"
        | vs -> Printf.sprintf "%d violation(s)" (List.length vs));
      Bench_gate.gate "wall-budget" within_budget
        (Printf.sprintf "%.2fs at -j %d, budget %.0fs" wall jobs budget);
    ]
    [
      ("racks", Json.Int racks);
      ("tenants", Json.Int tenants);
      ("chains", Json.Int (List.length demands));
      ("fabric_nf_cores", Json.Int (Fabric.total_nf_cores fabric));
      ( "aggregate_floor_gbps",
        Json.Float (Fabric.total_demand demands /. 1e9) );
      ( "parallel",
        match placed with
        | Some fp -> run_json ~jobs ~chains:(List.length demands) fp wall
        | None -> Json.Obj [ ("infeasible", Json.Bool true) ] );
      ("digests_equal", Json.Bool determinism.Bench_gate.ok);
      ("oracle_clean", Json.Bool (oracle_violations = []));
      ("budget_s", Json.Float budget);
      ("within_budget", Json.Bool within_budget);
    ]
