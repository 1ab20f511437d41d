(* The datacenter-scale bench behind `dune exec bench/main.exe -- scale`:
   builds a synthetic spine/leaf fabric, expands a tenant population
   into thousands of chain demands, times the sharded placer fanned out
   over N pool domains and writes BENCH_scale.json.

   Its one gate reads the clock: the placement must succeed within the
   mode's budget. The full scenario is the ROADMAP target — 50 racks /
   2000 chains within 300 s; --quick shrinks it to 4 racks / 64 chains
   within 60 s. The budgets are generous (the gate catches
   order-of-magnitude regressions, not noise); the JSON records the
   honest timing either way. The quick placement's digest, its oracle
   verdict and its -j invariance are pinned in test/test_fabric.ml. *)

module Fabric = Lemur_topology.Fabric
module Shard = Lemur_placer.Shard
module Pool = Lemur_util.Pool
module Json = Lemur_telemetry.Json

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
     Gbps aggregate floor, -j %d (host reports %d domain(s))\n%!"
    racks
    (Fabric.total_nf_cores fabric)
    tenants (List.length demands)
    (Fabric.total_demand demands /. 1e9)
    jobs
    (Pool.recommended_domains ());
  let t0 = Unix.gettimeofday () in
  let outcome = Shard.place ~jobs cfg demands in
  let wall = Lemur_util.Timing.duration ~start:t0 ~stop:(Unix.gettimeofday ()) in
  let placed, detail =
    match outcome with
    | Shard.Placed fp ->
        ( Some fp,
          Printf.sprintf "%.2fs at -j %d, budget %.0fs, %d repair move(s)" wall
            jobs budget (List.length fp.Shard.repairs) )
    | Shard.Infeasible { errors; _ } ->
        List.iter
          (fun e -> Printf.printf "  %s\n" (Shard.error_to_string e))
          errors;
        (None, Printf.sprintf "INFEASIBLE after %.2fs at -j %d" wall jobs)
  in
  let within_budget = Option.is_some placed && wall <= budget in
  Bench_gate.finish o
    [ Bench_gate.gate "wall-budget" within_budget detail ]
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
      ("budget_s", Json.Float budget);
      ("within_budget", Json.Bool within_budget);
    ]
