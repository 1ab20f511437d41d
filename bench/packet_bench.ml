(* The packet-engine bench behind `dune exec bench/main.exe -- packets`:
   generates a seeded scenario corpus, places each with the Lemur
   heuristic, executes every accepted placement packet-by-packet on
   Lemur_dataplane.Engine, and gates three properties into
   BENCH_packets.json:

   - convergence (hard gate): every engine run must agree with the
     batch-rate simulator on the same placement at the same offered
     rates, within the Lemur_check.Convergence tolerances documented
     in docs/DATAPLANE.md;
   - conservation (hard gate): injected = delivered + dropped +
     in-flight on every chain of every run;
   - determinism (hard gate): the corpus digest — per-chain packet
     counters and delivered rates, folded in seed order — at -j N must
     be byte-identical to -j 1.

   The headline metric is packet-hops served per host wall-clock
   second (a packet crossing one element is one hop), plus plain
   packets per second at ingress, both over the runs that serve at
   least one hop; both land in the JSON either way. *)

module Strategy = Lemur_placer.Strategy
module Plan = Lemur_placer.Plan
module Scenario = Lemur_check.Scenario
module Convergence = Lemur_check.Convergence
module Engine = Lemur_dataplane.Engine
module Sim = Lemur_dataplane.Sim
module Pool = Lemur_util.Pool
module Units = Lemur_util.Units
module Json = Lemur_telemetry.Json

type run = {
  r_seed : int;
  r_chains : int;
  r_offered : float;  (* bit/s, summed over chains *)
  r_delivered : float;
  r_injected : int;
  r_hops : int;
  r_wall : float;
  r_conserved : bool;
  r_divergences : string list;
  r_digest_line : string;
}

(* One corpus seed: generate, place, execute both ways, compare. An
   infeasible scenario contributes nothing (None) — which seeds those
   are is deterministic, so the corpus is still identical at any -j. *)
let run_seed ~quick seed =
  let scenario = Scenario.generate ~quick:true ~seed () in
  let cfg = Scenario.config scenario in
  let inputs = Scenario.inputs scenario in
  match Strategy.place Strategy.Lemur cfg inputs with
  | Strategy.Infeasible _ -> None
  | Strategy.Placed p ->
      let er =
        Engine.run ~seed:(seed + 13)
          ~duration:(Units.ms (if quick then 5.0 else 10.0))
          ~overdrive:1.0 ~config:cfg ~placement:p ()
      in
      let sr =
        Sim.run ~seed:(seed + 13)
          ~duration:(Units.ms (if quick then 10.0 else 20.0))
          ~overdrive:1.0 ~config:cfg ~placement:p ()
      in
      let verdict =
        Convergence.check ~pkt_bytes:cfg.Plan.pkt_bytes ~engine:er ~sim:sr ()
      in
      (* Exactly the deterministic outcomes: virtual-time counters and
         measured rates, never wall-clock. This is what the -j 1 vs
         -j N byte-identity gate hashes. *)
      let buf = Buffer.create 256 in
      Buffer.add_string buf (string_of_int seed);
      List.iter
        (fun (c : Engine.chain_result) ->
          Buffer.add_string buf
            (Printf.sprintf "|%s=%.17g:%d/%d/%d/%d/%d" c.Engine.chain_id
               c.Engine.delivered c.Engine.injected_pkts
               c.Engine.delivered_pkts c.Engine.dropped_pkts
               c.Engine.shaped_pkts c.Engine.in_flight_pkts))
        er.Engine.chains;
      Buffer.add_string buf
        (Printf.sprintf "|conv%b" (Convergence.ok verdict));
      Some
        {
          r_seed = seed;
          r_chains = List.length er.Engine.chains;
          r_offered =
            List.fold_left
              (fun a (c : Engine.chain_result) -> a +. c.Engine.offered)
              0.0 er.Engine.chains;
          r_delivered = er.Engine.aggregate_throughput;
          r_injected =
            List.fold_left
              (fun a (c : Engine.chain_result) -> a + c.Engine.injected_pkts)
              0 er.Engine.chains;
          r_hops = er.Engine.total_served;
          r_wall = er.Engine.wall_s;
          r_conserved = Engine.conserved er;
          r_divergences =
            List.map
              (Format.asprintf "%a" Convergence.pp_divergence)
              verdict.Convergence.divergences;
          r_digest_line = Buffer.contents buf;
        }

let run_corpus ~quick ~jobs seeds =
  let results = Pool.map ~domains:jobs (run_seed ~quick) seeds in
  let crashes = ref [] in
  let runs =
    List.concat_map
      (fun r ->
        match r with
        | Ok (Some run) -> [ run ]
        | Ok None -> []
        | Error (e : Pool.job_error) ->
            crashes := e.Pool.message :: !crashes;
            [])
      results
  in
  let crashes = List.rev !crashes in
  (* Crash messages join the digest so a crash at -j 1 alone fails the
     determinism gate even on a seed that places nothing at -j N. *)
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map (fun r -> r.r_digest_line) runs @ crashes)))
  in
  ((runs, crashes), digest)

let run_json r =
  Json.Obj
    [
      ("seed", Json.Int r.r_seed);
      ("chains", Json.Int r.r_chains);
      ("offered_gbps", Json.Float (r.r_offered /. 1e9));
      ("delivered_gbps", Json.Float (r.r_delivered /. 1e9));
      ("injected_pkts", Json.Int r.r_injected);
      ("packet_hops", Json.Int r.r_hops);
      ("wall_s", Json.Float r.r_wall);
      ( "hops_per_sec",
        Json.Float
          (if r.r_wall > 0.0 then float_of_int r.r_hops /. r.r_wall else 0.0)
      );
      ("conserved", Json.Bool r.r_conserved);
      ("converged", Json.Bool (r.r_divergences = []));
    ]

let main args =
  let o = Bench_gate.parse ~seed:1 ~count:true "packets" args in
  let quick = o.Bench_gate.quick and jobs = o.Bench_gate.jobs in
  let seed = Option.get o.Bench_gate.seed in
  let count =
    match o.Bench_gate.count with Some c -> c | None -> if quick then 8 else 24
  in
  let seeds = List.init count (fun i -> seed + i) in
  Printf.printf
    "## packets: %d scenario seed(s) from %d, engine vs sim at overdrive 1.0, \
     -j 1 vs -j %d (host reports %d domain(s))\n%!"
    count seed jobs
    (Pool.recommended_domains ());
  let ((runs, crashes), digest), determinism =
    Bench_gate.determinism ~jobs (fun jobs -> run_corpus ~quick ~jobs seeds)
  in
  List.iter (fun m -> Printf.printf "  CRASH: %s\n" m) crashes;
  (* Throughput counts hop-bearing runs only, as lemurbench's
     ns_per_hop does: a run whose chains never reach a server
     serves no hop but still spends engine wall time. *)
  let hop_runs = List.filter (fun r -> r.r_hops > 0) runs in
  let wall = List.fold_left (fun a r -> a +. r.r_wall) 0.0 hop_runs in
  let hops = List.fold_left (fun a r -> a + r.r_hops) 0 hop_runs in
  let injected = List.fold_left (fun a r -> a + r.r_injected) 0 hop_runs in
  List.iter
    (fun r ->
      Printf.printf
        "  seed %3d: %d chain(s), offered %6.2f Gbps, delivered %6.2f Gbps, \
         %7d hops in %.3fs%s%s\n"
        r.r_seed r.r_chains (r.r_offered /. 1e9) (r.r_delivered /. 1e9)
        r.r_hops r.r_wall
        (if r.r_conserved then "" else "  CONSERVATION VIOLATED")
        (if r.r_divergences = [] then "" else "  DIVERGED");
      List.iter
        (fun d -> Printf.printf "      divergence: %s\n" d)
        r.r_divergences)
    runs;
  let all_converged = List.for_all (fun r -> r.r_divergences = []) runs in
  let all_conserved = List.for_all (fun r -> r.r_conserved) runs in
  let placed = List.length runs in
  Printf.printf
    "packet-hops/sec: %.0f (%d hops, %d packets, %.2fs engine wall over %d \
     hop-bearing run(s))\n"
    (if wall > 0.0 then float_of_int hops /. wall else 0.0)
    hops injected wall (List.length hop_runs);
  Bench_gate.finish o
    [
      determinism;
      Bench_gate.gate "convergence" all_converged
        (if all_converged then "every run within tolerance"
         else "DIVERGED from the rate model");
      Bench_gate.gate "conservation" all_conserved
        (if all_conserved then "injected = delivered + dropped + in flight"
         else "VIOLATED");
      Bench_gate.gate "crashes" (crashes = [])
        (Printf.sprintf "%d crashed run(s)" (List.length crashes));
      Bench_gate.gate "placed" (placed > 0)
        (Printf.sprintf "placed %d of %d scenario(s)" placed count);
    ]
    [
      ("count", Json.Int count);
      ("placed", Json.Int placed);
      ("runs", Json.List (List.map run_json runs));
      ("hop_runs", Json.Int (List.length hop_runs));
      ("packet_hops", Json.Int hops);
      ("injected_pkts", Json.Int injected);
      ("engine_wall_s", Json.Float wall);
      ( "hops_per_sec",
        Json.Float (if wall > 0.0 then float_of_int hops /. wall else 0.0) );
      ( "packets_per_sec",
        Json.Float (if wall > 0.0 then float_of_int injected /. wall else 0.0)
      );
      ("digest", Json.String digest);
      ("digests_equal", Json.Bool determinism.Bench_gate.ok);
      ("converged", Json.Bool all_converged);
      ("conserved", Json.Bool all_conserved);
      ("crashes", Json.List (List.map (fun m -> Json.String m) crashes));
    ]
