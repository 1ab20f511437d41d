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
  let digest =
    Digest.to_hex
      (Digest.string (String.concat "\n" (List.map (fun r -> r.r_digest_line) runs)))
  in
  (runs, digest, List.rev !crashes)

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
  let seed = ref 1
  and count = ref None
  and jobs = ref None
  and quick = ref false
  and out = ref "BENCH_packets.json" in
  let rec parse = function
    | [] -> Ok ()
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--count" :: v :: rest ->
        count := Some (int_of_string v);
        parse rest
    | ("-j" | "--jobs") :: v :: rest ->
        jobs := Some (int_of_string v);
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | arg :: _ -> Error arg
  in
  match parse args with
  | Error arg ->
      Printf.eprintf
        "bench packets: unknown argument %S\n\
         usage: bench -- packets [--quick] [--seed N] [--count N] [-j N] \
         [--out FILE]\n"
        arg;
      2
  | Ok () ->
      let count =
        match !count with Some c -> c | None -> if !quick then 8 else 24
      in
      let jobs =
        match !jobs with
        | Some j -> max 1 j
        | None -> max 2 (Pool.recommended_domains ())
      in
      let seeds = List.init count (fun i -> !seed + i) in
      Printf.printf
        "## packets: %d scenario seed(s) from %d, engine vs sim at overdrive \
         1.0, -j 1 vs -j %d (host reports %d domain(s))\n%!"
        count !seed jobs
        (Pool.recommended_domains ());
      let _seq_runs, seq_digest, seq_crashes =
        run_corpus ~quick:!quick ~jobs:1 seeds
      in
      let par_runs, par_digest, par_crashes =
        run_corpus ~quick:!quick ~jobs seeds
      in
      let crashes = seq_crashes @ par_crashes in
      List.iter (fun m -> Printf.printf "  CRASH: %s\n" m) crashes;
      (* Throughput counts hop-bearing runs only, as lemurbench's
         ns_per_hop does: a run whose chains never reach a server
         serves no hop but still spends engine wall time. *)
      let hop_runs = List.filter (fun r -> r.r_hops > 0) par_runs in
      let wall = List.fold_left (fun a r -> a +. r.r_wall) 0.0 hop_runs in
      let hops = List.fold_left (fun a r -> a + r.r_hops) 0 hop_runs in
      let injected =
        List.fold_left (fun a r -> a + r.r_injected) 0 hop_runs
      in
      List.iter
        (fun r ->
          Printf.printf
            "  seed %3d: %d chain(s), offered %6.2f Gbps, delivered %6.2f \
             Gbps, %7d hops in %.3fs%s%s\n"
            r.r_seed r.r_chains (r.r_offered /. 1e9) (r.r_delivered /. 1e9)
            r.r_hops r.r_wall
            (if r.r_conserved then "" else "  CONSERVATION VIOLATED")
            (if r.r_divergences = [] then "" else "  DIVERGED");
          List.iter
            (fun d -> Printf.printf "      divergence: %s\n" d)
            r.r_divergences)
        par_runs;
      let digests_equal = String.equal seq_digest par_digest in
      let all_converged =
        List.for_all (fun r -> r.r_divergences = []) par_runs
      in
      let all_conserved = List.for_all (fun r -> r.r_conserved) par_runs in
      Printf.printf "placed %d of %d scenario(s)\n" (List.length par_runs)
        count;
      Printf.printf "packet-hops/sec: %.0f (%d hops, %d packets, %.2fs engine \
                     wall over %d hop-bearing run(s))\n"
        (if wall > 0.0 then float_of_int hops /. wall else 0.0)
        hops injected wall (List.length hop_runs);
      Printf.printf "determinism: %s\n"
        (if digests_equal then
           Printf.sprintf "ok, digest %s identical at -j 1 and -j %d"
             par_digest jobs
         else
           Printf.sprintf "DIGEST MISMATCH (-j 1: %s, -j %d: %s)" seq_digest
             jobs par_digest);
      Printf.printf "convergence: %s\n"
        (if all_converged then "ok, every run within tolerance"
         else "DIVERGED from the rate model");
      Printf.printf "conservation: %s\n"
        (if all_conserved then "ok" else "VIOLATED");
      let doc =
        Json.Obj
          [
            ("schema", Json.String "lemur.bench.packets/1");
            ("seed", Json.Int !seed);
            ("count", Json.Int count);
            ("placed", Json.Int (List.length par_runs));
            ("jobs", Json.Int jobs);
            ("host_domains", Json.Int (Pool.recommended_domains ()));
            ("quick", Json.Bool !quick);
            ("runs", Json.List (List.map run_json par_runs));
            ("hop_runs", Json.Int (List.length hop_runs));
            ("packet_hops", Json.Int hops);
            ("injected_pkts", Json.Int injected);
            ("engine_wall_s", Json.Float wall);
            ( "hops_per_sec",
              Json.Float
                (if wall > 0.0 then float_of_int hops /. wall else 0.0) );
            ( "packets_per_sec",
              Json.Float
                (if wall > 0.0 then float_of_int injected /. wall else 0.0) );
            ("digest", Json.String par_digest);
            ("digests_equal", Json.Bool digests_equal);
            ("converged", Json.Bool all_converged);
            ("conserved", Json.Bool all_conserved);
            ("crashes", Json.List (List.map (fun m -> Json.String m) crashes));
          ]
      in
      let oc = open_out !out in
      output_string oc (Json.to_string doc);
      output_string oc "\n";
      close_out oc;
      Printf.printf "wrote %s\n" !out;
      if
        digests_equal && all_converged && all_conserved && crashes = []
        && par_runs <> []
      then 0
      else 1
