open Lemur_placer
open Lemur_dataplane

let config () = Plan.default_config (Lemur_topology.Topology.testbed ())

let place c inputs =
  match Strategy.place Strategy.Lemur c inputs with
  | Strategy.Placed p -> p
  | Strategy.Infeasible { reason } -> Alcotest.failf "infeasible: %s" reason

let simple_placement ?(t_min = 4e9) c =
  let g = Lemur_spec.Loader.chain_of_string ~name:"c" "Encrypt -> IPv4Fwd" in
  place c [ { Plan.id = "c"; graph = g; slo = Lemur_slo.Slo.make ~t_min ~t_max:100e9 () } ]

(* The smallest entry with its key, or [None] once drained. *)
let pop h =
  if Heap.is_empty h then None
  else
    let k = Heap.min_key h in
    Some (k, Heap.take h)

let test_heap () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  List.iter (fun (k, v) -> Heap.push h k v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  Alcotest.(check int) "size" 3 (Heap.size h);
  Alcotest.(check (option (pair (float 0.0) string))) "min first" (Some (1.0, "a")) (pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "then b" (Some (2.0, "b")) (pop h);
  Heap.push h 0.5 "z";
  Alcotest.(check (option (pair (float 0.0) string))) "reorders" (Some (0.5, "z")) (pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "last" (Some (3.0, "c")) (pop h);
  Alcotest.(check bool) "drained" true (pop h = None)

let test_heap_property () =
  let prng = Lemur_util.Prng.create ~seed:11 in
  let h = Heap.create () in
  for _ = 1 to 500 do
    Heap.push h (Lemur_util.Prng.float prng 1000.0) ()
  done;
  let prev = ref neg_infinity in
  let sorted = ref true in
  let rec drain () =
    match pop h with
    | None -> ()
    | Some (k, ()) ->
        if k < !prev then sorted := false;
        prev := k;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "pops in order" true !sorted

let test_heap_fifo_ties () =
  (* Equal keys must pop in insertion order: simultaneous events are
     served in the order they were scheduled. *)
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 5.0 v) [ "first"; "second"; "third" ];
  Heap.push h 1.0 "early";
  List.iter (fun v -> Heap.push h 5.0 v) [ "fourth"; "fifth" ];
  let order = ref [] in
  let rec drain () =
    match pop h with
    | None -> ()
    | Some (_, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list string))
    "ties pop FIFO"
    [ "early"; "first"; "second"; "third"; "fourth"; "fifth" ]
    (List.rev !order)

let test_heap_fifo_property () =
  (* Random interleaving of a few key values: among equal keys,
     insertion order is preserved in the pop sequence. *)
  let prng = Lemur_util.Prng.create ~seed:3 in
  let h = Heap.create () in
  for i = 0 to 499 do
    Heap.push h (float_of_int (Lemur_util.Prng.int prng 5)) i
  done;
  let prev_key = ref neg_infinity and prev_seq = ref (-1) in
  let ok = ref true in
  let rec drain () =
    match pop h with
    | None -> ()
    | Some (k, seq) ->
        if k < !prev_key then ok := false;
        if k = !prev_key && seq < !prev_seq then ok := false;
        prev_key := k;
        prev_seq := seq;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "sorted, FIFO within equal keys" true !ok

let test_determinism () =
  let c = config () in
  let p = simple_placement c in
  let r1 = Sim.run ~seed:5 ~config:c ~placement:p () in
  let r2 = Sim.run ~seed:5 ~config:c ~placement:p () in
  Alcotest.(check (float 1e-6)) "same aggregate" r1.Sim.aggregate_throughput
    r2.Sim.aggregate_throughput

let test_measured_tracks_predicted () =
  (* §5.2: predicted throughput closely matches measured, and
     predictions are conservative (measured >= ~predicted). *)
  let c = config () in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 1; 2; 3; 4 ] in
  let p = place c inputs in
  let r = Sim.run ~config:c ~placement:p () in
  let predicted = p.Strategy.total_rate in
  let measured = r.Sim.aggregate_throughput in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.2fG within [0.95, 1.15] of predicted %.2fG"
       (measured /. 1e9) (predicted /. 1e9))
    true
    (measured > 0.95 *. predicted && measured < 1.15 *. predicted)

let test_slo_satisfied () =
  let c = config () in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:1.0 [ 1; 2; 3 ] in
  let p = place c inputs in
  let r = Sim.run ~config:c ~placement:p () in
  List.iter
    (fun cr ->
      let report =
        List.find
          (fun rep -> rep.Strategy.plan.Plan.input.Plan.id = cr.Sim.chain_id)
          p.Strategy.chain_reports
      in
      let t_min = report.Strategy.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_min in
      Alcotest.(check bool)
        (Printf.sprintf "%s delivers >= t_min" cr.Sim.chain_id)
        true
        (cr.Sim.delivered >= t_min *. 0.97))
    r.Sim.chains

let test_delivered_bounded_by_offered () =
  let c = config () in
  let p = simple_placement c in
  let r = Sim.run ~config:c ~placement:p () in
  List.iter
    (fun cr ->
      Alcotest.(check bool) "delivered <= offered (within batching noise)" true
        (cr.Sim.delivered <= cr.Sim.offered *. 1.02))
    r.Sim.chains

let test_overload_drops () =
  (* Overdriving far past capacity must drop, not inflate throughput. *)
  let c = config () in
  let p = simple_placement c in
  let r = Sim.run ~overdrive:2.0 ~config:c ~placement:p () in
  let cr = List.hd r.Sim.chains in
  Alcotest.(check bool) "drops occurred" true (cr.Sim.batches_dropped > 0);
  let capacity = (List.hd p.Strategy.chain_reports).Strategy.capacity in
  Alcotest.(check bool) "delivered near capacity, not offered" true
    (cr.Sim.delivered < capacity *. 1.1)

let test_latency_scales_with_bounces () =
  (* A chain bouncing more measures higher latency (at low load). *)
  let c = config () in
  let mk text =
    let g = Lemur_spec.Loader.chain_of_string ~name:"c" text in
    place c [ { Plan.id = "c"; graph = g; slo = Lemur_slo.Slo.make ~t_min:1e8 ~t_max:100e9 () } ]
  in
  let measure p = Sim.run ~overdrive:0.5 ~config:c ~placement:p () in
  let one_bounce = measure (mk "Encrypt -> IPv4Fwd") in
  let two_bounce = measure (mk "Encrypt -> NAT -> Decrypt -> IPv4Fwd") in
  let lat r = (List.hd r.Sim.chains).Sim.mean_latency in
  Alcotest.(check bool) "two bounces slower" true
    (lat two_bounce > lat one_bounce)

let test_token_bucket_enforces_tmax () =
  let c = config () in
  let g = Lemur_spec.Loader.chain_of_string ~name:"c" "Tunnel -> IPv4Fwd" in
  (* all-hardware chain (line rate), capped at 5 Gbps *)
  let slo = Lemur_slo.Slo.make ~t_min:1e9 ~t_max:5e9 () in
  let p = place c [ { Plan.id = "c"; graph = g; slo } ] in
  let r = Sim.run ~overdrive:3.0 ~config:c ~placement:p () in
  let cr = List.hd r.Sim.chains in
  Alcotest.(check bool)
    (Printf.sprintf "tmax enforced (%.2fG <= 5G)" (cr.Sim.delivered /. 1e9))
    true
    (cr.Sim.delivered <= 5.2e9)

let test_traffic_modes () =
  (* Flow churn makes stateful NFs (Dedup) slower, so an overdriven
     chain delivers strictly less under Short_flows. *)
  let c = config () in
  let g = Lemur_spec.Loader.chain_of_string ~name:"c" "Dedup -> IPv4Fwd" in
  let p =
    place c
      [ { Plan.id = "c"; graph = g; slo = Lemur_slo.Slo.make ~t_min:5e8 ~t_max:100e9 () } ]
  in
  let measure traffic =
    (List.hd
       (Sim.run ~overdrive:2.0 ~traffic ~config:c ~placement:p ()).Sim.chains)
      .Sim.delivered
  in
  let long = measure Sim.Long_lived and churn = measure Sim.Short_flows in
  Alcotest.(check bool)
    (Printf.sprintf "churn slower (%.3fG < %.3fG)" (churn /. 1e9) (long /. 1e9))
    true (churn < long)

let test_ofswitch_contention () =
  (* The shared OpenFlow link is a real resource: a chain through the OF
     switch cannot exceed its capacity even when overdriven. *)
  let topo = Lemur_topology.Topology.no_pisa_testbed ~ofswitch:true () in
  let c = { (Plan.default_config topo) with Plan.eval_capabilities = false } in
  let g = Lemur_spec.Loader.chain_of_string ~name:"c" "ACL -> Monitor -> IPv4Fwd" in
  let p =
    place c
      [ { Plan.id = "c"; graph = g; slo = Lemur_slo.Slo.make ~t_min:1e9 ~t_max:100e9 () } ]
  in
  let uses_of =
    List.exists
      (fun r -> r.Strategy.plan.Plan.ofswitch_nodes <> [])
      p.Strategy.chain_reports
  in
  if uses_of then begin
    let r = Sim.run ~overdrive:3.0 ~config:c ~placement:p () in
    let cr = List.hd r.Sim.chains in
    Alcotest.(check bool)
      (Printf.sprintf "capped near the OF capacity (%.1fG)" (cr.Sim.delivered /. 1e9))
      true
      (cr.Sim.delivered <= 41e9)
  end

let test_smartnic_path () =
  let topo = Lemur_topology.Topology.testbed ~smartnic:true () in
  let c = Plan.default_config topo in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 5 ] in
  let p = place c inputs in
  let r = Sim.run ~config:c ~placement:p () in
  let cr = List.hd r.Sim.chains in
  Alcotest.(check bool) "delivers through the NIC" true (cr.Sim.delivered > 1e9)

(* ------------------------------------------------------------------ *)
(* The packet-at-a-time engine                                          *)

let chain_counters (c : Engine.chain_result) =
  ( c.Engine.injected_pkts, c.Engine.delivered_pkts, c.Engine.dropped_pkts,
    c.Engine.shaped_pkts, c.Engine.in_flight_pkts )

let test_engine_determinism () =
  let c = config () in
  let p = simple_placement c in
  let r1 = Engine.run ~seed:5 ~config:c ~placement:p () in
  let r2 = Engine.run ~seed:5 ~config:c ~placement:p () in
  Alcotest.(check (float 1e-6)) "same aggregate" r1.Engine.aggregate_throughput
    r2.Engine.aggregate_throughput;
  Alcotest.(check int) "same hop count" r1.Engine.total_served
    r2.Engine.total_served;
  List.iter2
    (fun a b ->
      Alcotest.(check (pair (pair int int) (pair int (pair int int))))
        "same per-chain counters"
        (let i, d, dr, s, f = chain_counters a in ((i, d), (dr, (s, f))))
        (let i, d, dr, s, f = chain_counters b in ((i, d), (dr, (s, f)))))
    r1.Engine.chains r2.Engine.chains

let test_engine_tracks_sim () =
  (* The tentpole invariant, smoke-sized: on the paper's testbed the
     packet engine and the batch-rate model measure the same chains
     within a few percent. The full-tolerance check lives in
     Lemur_check.Convergence (test_check.ml) and in `lemur fuzz`. *)
  let c = config () in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 1; 2; 3 ] in
  let p = place c inputs in
  let er = Engine.run ~seed:9 ~overdrive:1.0 ~config:c ~placement:p () in
  let sr = Sim.run ~seed:9 ~overdrive:1.0 ~config:c ~placement:p () in
  List.iter
    (fun (ec : Engine.chain_result) ->
      match
        List.find_opt
          (fun (sc : Sim.chain_result) -> sc.Sim.chain_id = ec.Engine.chain_id)
          sr.Sim.chains
      with
      | None -> Alcotest.failf "chain %s missing from sim" ec.Engine.chain_id
      | Some sc ->
          let rel =
            Float.abs (ec.Engine.delivered -. sc.Sim.delivered)
            /. Float.max 1.0 sc.Sim.delivered
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: engine %.3fG vs sim %.3fG (rel %.3f)"
               ec.Engine.chain_id
               (ec.Engine.delivered /. 1e9)
               (sc.Sim.delivered /. 1e9)
               rel)
            true (rel < 0.08))
    er.Engine.chains

let test_engine_overload_conserves () =
  (* Overdriven far past capacity the engine must tail-drop — and the
     conservation identity must survive the carnage. *)
  let c = config () in
  let p = simple_placement c in
  let r = Engine.run ~overdrive:3.0 ~config:c ~placement:p () in
  let cr = List.hd r.Engine.chains in
  Alcotest.(check bool) "drops occurred" true (cr.Engine.dropped_pkts > 0);
  Alcotest.(check bool) "identity holds under overload" true
    (Engine.conserved r);
  (* The placer's capacity is worst-case-cycle pessimistic, so the
     engine (sampling the profiled distribution) can legitimately beat
     it — but at 3x drive it must shed most of the offered load. *)
  Alcotest.(check bool) "delivered well below offered" true
    (cr.Engine.delivered < cr.Engine.offered *. 0.75)

let test_engine_conservation_aggregate () =
  (* injected = delivered + dropped + in_flight per chain AND summed,
     at both gentle and punishing drive. *)
  let c = config () in
  let inputs = Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 1; 2; 4 ] in
  let p = place c inputs in
  List.iter
    (fun overdrive ->
      let r = Engine.run ~overdrive ~config:c ~placement:p () in
      Alcotest.(check bool)
        (Printf.sprintf "per-chain identity at overdrive %.1f" overdrive)
        true (Engine.conserved r);
      let sum f = List.fold_left (fun a cr -> a + f cr) 0 r.Engine.chains in
      Alcotest.(check int)
        (Printf.sprintf "aggregate identity at overdrive %.1f" overdrive)
        (sum (fun cr -> cr.Engine.injected_pkts))
        (sum (fun cr -> cr.Engine.delivered_pkts)
        + sum (fun cr -> cr.Engine.dropped_pkts)
        + sum (fun cr -> cr.Engine.in_flight_pkts)))
    [ 1.0; 2.5 ]

(* ------------------------------------------------------------------ *)
(* Golden executor results                                              *)

(* Every deterministic field of Engine.result and Sim.result, floats as
   exact hex ([%h]), plus the counters and latency histograms each run
   leaves in its own telemetry registry. Wall-clock fields are left out.
   Pinned digests guard latencies and per-element tallies, which the
   end-to-end digests do not cover. *)
let golden_cases () =
  let deploy ~topology ?acl_algo spec =
    match Lemur.Deployment.of_spec ~topology ?acl_algo spec with
    | Ok d -> (d.Lemur.Deployment.config, d.Lemur.Deployment.placement)
    | Error e -> Alcotest.failf "deploy: %s" e
  in
  let c = config () in
  let nic = Plan.default_config (Lemur_topology.Topology.testbed ~smartnic:true ()) in
  let rack =
    Plan.default_config
      (Lemur_topology.Topology.testbed ~num_servers:2 ~smartnic:true ~ofswitch:true ())
  in
  let metron =
    { (Plan.default_config (Lemur_topology.Topology.testbed ~num_servers:2 ())) with
      Plan.metron_steering = true }
  in
  [
    ("single chain", (c, simple_placement c));
    (* chain2 runs on 8 replica cores behind the HashLB *)
    ("fig2c delta 0.5", (c, place c (Lemur.Chains.inputs_for_delta c ~delta:0.5 [ 1; 2; 4 ])));
    ("smartnic", (nic, place nic (Lemur.Chains.inputs_for_delta nic ~delta:0.5 [ 5 ])));
    ( "acl classified",
      deploy
        ~topology:(Lemur_topology.Topology.no_pisa_testbed ~ofswitch:false ())
        ~acl_algo:(Some Lemur_classifier.Classifier.Computed)
        "chain cls slo(tmin='0.2Gbps', tmax='10Gbps') = ACL(rules=4096) -> Encrypt" );
    (* both servers, SmartNIC and OpenFlow hops, replicated subgroups *)
    ("two servers, nic + of", (rack, place rack (Lemur.Chains.inputs_for_delta rack ~delta:1.0 [ 4; 5 ])));
    (* Metron tagging: no demux element, no LB cycles on replicas *)
    ("metron", (metron, place metron (Lemur.Chains.inputs_for_delta metron ~delta:0.5 [ 1; 2; 4 ])));
    (* [sw] runs wholly on the PISA switch (its route visits no server)
       while [srv]'s core queue reaches Sim's 2 ms limit and drops *)
    ( "switch-only beside an overloaded server",
      deploy ~topology:(Lemur_topology.Topology.testbed ())
        "chain sw slo(tmin='1Gbps', tmax='10Gbps') = ACL -> IPv4Fwd\n\
         chain srv slo(tmin='2Gbps', tmax='100Gbps') = Encrypt -> IPv4Fwd" );
  ]

let telemetry_lines tm =
  List.map
    (fun k ->
      Printf.sprintf "%s=%d" (Lemur_telemetry.Counter.name k)
        (Lemur_telemetry.Counter.value k))
    (Lemur_telemetry.Telemetry.counters tm)
  @ List.map
      (fun h ->
        let module H = Lemur_telemetry.Histogram in
        Printf.sprintf "%s=%d/%h/%h/%h/%h/%h" (H.name h) (H.count h) (H.sum h)
          (H.min_value h) (H.max_value h) (H.percentile h 50.0)
          (H.percentile h 99.0))
      (Lemur_telemetry.Telemetry.histograms tm)
  |> List.sort compare

let traced f =
  let tm = Lemur_telemetry.Telemetry.create () in
  let prev = Lemur_telemetry.Telemetry.current () in
  Lemur_telemetry.Telemetry.set_current tm;
  let r = Fun.protect ~finally:(fun () -> Lemur_telemetry.Telemetry.set_current prev) f in
  (r, telemetry_lines tm)

(* [dataplane.engine.heads_read] counts the EDF pick's work, not the
   run's output, so the digests leave it out; "engine pick reads few
   heads" gates it on its own. *)
let is_heads_read l = String.starts_with ~prefix:"dataplane.engine.heads_read=" l

let engine_digest (c, p) =
  let r, tel = traced (fun () -> Engine.run ~seed:3 ~config:c ~placement:p ()) in
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  List.iter
    (fun (x : Engine.chain_result) ->
      add "chain %s %h %h %h %h %h %h %d %d %d %d %d\n" x.Engine.chain_id
        x.Engine.offered x.Engine.delivered x.Engine.mean_latency
        x.Engine.p50_latency x.Engine.p99_latency x.Engine.max_latency
        x.Engine.injected_pkts x.Engine.delivered_pkts x.Engine.dropped_pkts
        x.Engine.shaped_pkts x.Engine.in_flight_pkts)
    r.Engine.chains;
  List.iter
    (fun (e : Engine.element_stat) ->
      add "el %s %d %d %d %d\n" e.Engine.el_name e.Engine.el_pulled
        e.Engine.el_pushed e.Engine.el_dropped e.Engine.el_queued)
    r.Engine.elements;
  add "agg %h %h %d %d %d\n" r.Engine.aggregate_throughput r.Engine.duration
    r.Engine.breaths r.Engine.total_served r.Engine.pool_exhausted;
  List.iter (add "%s\n") (List.filter (fun l -> not (is_heads_read l)) tel);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A traced Sim run's result and telemetry as text, floats in hex. *)
let sim_text b (r, tel) =
  let add fmt = Printf.bprintf b fmt in
  List.iter
    (fun (x : Sim.chain_result) ->
      add "chain %s %h %h %h %h %h %h %d %d\n" x.Sim.chain_id x.Sim.offered
        x.Sim.delivered x.Sim.mean_latency x.Sim.p50_latency x.Sim.p99_latency
        x.Sim.max_latency x.Sim.batches_dropped x.Sim.batches_delivered)
    r.Sim.chains;
  add "agg %h %h\n" r.Sim.aggregate_throughput r.Sim.duration;
  List.iter (add "%s\n") tel

let sim_digest (c, p) =
  let b = Buffer.create 1024 in
  List.iter
    (fun traffic ->
      sim_text b (traced (fun () -> Sim.run ~seed:3 ~traffic ~config:c ~placement:p ())))
    [ Sim.Long_lived; Sim.Short_flows ];
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The first four were recorded before the executors' hot loops were
   made allocation-free, the next two before Sim and Engine shared one
   layout, and the last before Sim delivered switch-only batches without
   queueing them. The first six Sim digests were re-recorded when Sim's
   [dataplane.slo.latency_*] tallies started counting chains without a
   [d_max] as met (one [latency_ok] per such chain and run); every
   other line of the digested text is unchanged. *)
let golden =
  [
    ("single chain", "09c377a0ac00b76a978fc1fc238f7d7d", "e13f6f491985c95d18d5d2af806e0c67");
    ("fig2c delta 0.5", "5c60187d1230bf13ee6da634b4c54522", "889f96250560d9503aeb6e62ddf79d89");
    ("smartnic", "b7b6d00e99c75afe36ef13921edda92d", "0ba1a8571213af734d79d14a69bf6103");
    ("acl classified", "9d637bc2f8e75adbafec0747c9a03632", "c3f776b20da2c4dbe143b99ec9b37d68");
    ("two servers, nic + of", "611c021a17ce2c67d59b38453e0efe56", "114fd4f07c80ffd3fcb4fa7d6fee3636");
    ("metron", "bb373836463759a27b1ad3ed0feea643", "784faa93c1e541feb2c943ae95f02d4c");
    ( "switch-only beside an overloaded server",
      "c6740b6383fd3a5bf4b6185599064972", "8339ffe9aad6fcfe589250f134a43cd6" );
  ]

let test_golden_executors () =
  List.iter2
    (fun (name, case) (name', engine, sim) ->
      Alcotest.(check string) "case order" name' name;
      Alcotest.(check string) (name ^ ": engine digest") engine (engine_digest case);
      Alcotest.(check string) (name ^ ": sim digest") sim (sim_digest case))
    (golden_cases ()) golden

(* The EDF pick's head reads on the golden "fig2c delta 0.5" case. A
   scan of every head of the worker on every pick reads 863 132; skipping
   empty rings and stopping at the first head that starts at the least
   possible time must keep it to a third of that, so a return to the
   full scan fails here without reading a clock. *)
let test_engine_heads_read () =
  let parent_scan = 863_132 in
  let c, p = List.assoc "fig2c delta 0.5" (golden_cases ()) in
  let _, tel = traced (fun () -> Engine.run ~seed:3 ~config:c ~placement:p ()) in
  let reads =
    match List.find_opt is_heads_read tel with
    | Some l -> int_of_string (List.nth (String.split_on_char '=' l) 1)
    | None -> Alcotest.fail "no dataplane.engine.heads_read counter"
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d heads read <= %d / 3" reads parent_scan)
    true
    (reads > 0 && reads * 3 <= parent_scan)

(* ------------------------------------------------------------------ *)
(* Sim against its single-heap reference                                *)

(* Both queues share one sequence counter, so equal times pop in push
   order across them: a generator pushed after two batches at the same
   time pops after both. *)
let test_sim_event_order () =
  let ev = Sim.events () in
  List.iter
    (fun (k, e) -> Sim.push ev k e)
    [ (5.0, Sim.Step 0); (5.0, Sim.Step 1); (5.0, Sim.Generate 0); (1.0, Sim.Step 2);
      (5.0, Sim.Generate 1); (5.0, Sim.Step 3) ];
  let rec drain acc = match Sim.pop ev with None -> List.rev acc | Some x -> drain (x :: acc) in
  Alcotest.(check bool) "push order among equal times" true
    (drain []
    = [ (1.0, Sim.Step 2); (5.0, Sim.Step 0); (5.0, Sim.Step 1); (5.0, Sim.Generate 0);
        (5.0, Sim.Generate 1); (5.0, Sim.Step 3) ])

(* Random pushes into both queues, interleaved with pops, drain in the
   order of one reference {!Heap} holding every entry. Keys come from a
   few small integers, so ties across the queues are common. *)
let event_order_qcheck_case =
  let open QCheck in
  Test.make ~name:"sim events pop like one heap" ~count:300
    (make Gen.(list_size (int_range 0 60) (triple (int_range 0 3) bool (int_range 0 4))))
    (fun ops ->
      let ev = Sim.events () and h = Heap.create () in
      let pop_both () =
        let expected =
          if Heap.is_empty h then None
          else
            let k = Heap.min_key h in
            Some (k, Heap.take h)
        in
        Sim.pop ev = expected
      in
      List.for_all
        (fun (op, gen, k) ->
          if op = 0 then pop_both ()
          else begin
            let e = if gen then Sim.Generate op else Sim.Step op in
            Sim.push ev (float_of_int k) e;
            Heap.push h (float_of_int k) e;
            true
          end)
        ops
      && List.for_all (fun _ -> pop_both ()) ops)

(* The same Sim run through [Sim.run] and the reference, as traced text. *)
let sim_matches_ref ?batch_pkts ?overdrive ?traffic ?offered ~seed c p =
  let text run =
    let b = Buffer.create 1024 in
    sim_text b (traced run);
    Buffer.contents b
  in
  text (fun () ->
      Sim.run ~seed ?batch_pkts ?overdrive ?traffic ?offered ~config:c ~placement:p ())
  = text (fun () ->
        Sim_ref.run ~seed ?batch_pkts ?overdrive ?traffic ?offered ~config:c
          ~placement:p ())

let test_sim_matches_ref_golden () =
  List.iter
    (fun (name, (c, p)) ->
      List.iter
        (fun (batch_pkts, overdrive) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, %d-packet batches at overdrive %.1f" name batch_pkts
               overdrive)
            true
            (sim_matches_ref ~batch_pkts ~overdrive ~seed:5 c p))
        [ (32, 1.08); (4, 0.5); (32, 3.0) ])
    (golden_cases ())

(* [Scenario.generate] placements (quick or not) with a switch-only
   chain added beside them, at overdrive 0.5-3 (overloading the server
   chains at the top), with some chains' offered rates overridden (0
   silences one), in both traffic kinds and batch sizes 4 and 32. *)
let sim_ref_qcheck_case =
  let open QCheck in
  let switch_only =
    { Lemur_check.Scenario.cs_id = "sw";
      cs_shape = Lemur_check.Scenario.Linear [ "ACL"; "IPv4Fwd" ];
      cs_tmin_frac = 0.0; cs_tmax = 10e9; cs_dmax = None; cs_weight = 1.0 }
  in
  Test.make ~name:"sim matches the single-heap reference" ~count:60
    (make
       Gen.(quad (int_range 1 100_000) (float_range 0.5 3.0) (triple bool bool bool)
              (list_size (int_range 0 3) (pair nat (float_range 0.0 2.0)))))
    (fun (seed, overdrive, (quick, small, short), overrides) ->
      let sc = Lemur_check.Scenario.generate ~quick ~seed () in
      let sc =
        { sc with Lemur_check.Scenario.sc_chains = switch_only :: sc.sc_chains }
      in
      let c = Lemur_check.Scenario.config sc in
      let inputs = Lemur_check.Scenario.inputs sc in
      match Strategy.place Strategy.Lemur c inputs with
      | Strategy.Infeasible _ -> true
      | Strategy.Placed p ->
          let ids = Array.of_list (List.map (fun i -> i.Plan.id) inputs) in
          let offered =
            List.map
              (fun (k, x) -> (ids.(k mod Array.length ids), x *. 10e9))
              overrides
          in
          sim_matches_ref ~batch_pkts:(if small then 4 else 32) ~overdrive
            ~traffic:(if short then Sim.Short_flows else Sim.Long_lived)
            ~offered ~seed c p)

(* ------------------------------------------------------------------ *)
(* EDF pick                                                             *)

(* The breathing loop's pick before it skipped empty rings and stopped
   early, kept as the reference: every head is read, and the strict
   [<] keeps the lowest slot among equal starts. *)
let scan_pick ~serialize ~busy ~slice_end heads =
  let best = ref (-1) and best_start = ref infinity in
  Array.iteri
    (fun i head ->
      let start = if serialize && busy > head then busy else head in
      if start < slice_end && start < !best_start then begin
        best := i;
        best_start := start
      end)
    heads;
  !best

(* A worker's rings driven the way the breathing loop drives them: each
   step first fills some empty rings, then picks; the chosen ring gets a
   new head or drains, and a serializing worker's clock moves to the
   end of the service. Heads, [busy] and [slice_end] come from a few
   small integers, so ties between heads, a head equal to [busy] and
   heads cut by [slice_end] are common; [infinity] marks an empty ring.
   [Engine.pick] must choose the reference's slot at every step, read
   at most the live heads, and keep [floor] at or below every live head
   but the chosen one. *)
let pick_qcheck_case =
  let open QCheck in
  let value = Gen.(map float_of_int (int_range 0 12)) in
  let step =
    Gen.(quad (list_size (int_range 0 3) (pair nat value)) value value
           (pair value (int_range 0 4)))
  in
  Test.make ~name:"engine pick matches the linear scan" ~count:500
    (make Gen.(triple bool (int_range 0 12) (list_size (int_range 1 40) step)))
    (fun (serialize, n, steps) ->
      let heads = Array.make n infinity and live = Array.make n 0 in
      let nlive = ref 0 in
      let clock = { Engine.busy = 0.0; floor = infinity } in
      let reads = ref 0 in
      let relist () =
        nlive := 0;
        Array.iteri
          (fun i h ->
            if h < infinity then begin
              live.(!nlive) <- i;
              incr nlive
            end)
          heads
      in
      let set_head i h =
        heads.(i) <- h;
        if h < clock.Engine.floor then clock.Engine.floor <- h;
        relist ()
      in
      List.for_all
        (fun (fills, busy, slice_end, (next_head, service)) ->
          if n > 0 then
            List.iter
              (fun (k, h) -> if heads.(k mod n) = infinity then set_head (k mod n) h)
              fills;
          if serialize && busy > clock.Engine.busy then clock.Engine.busy <- busy;
          let busy = clock.Engine.busy in
          let expected = scan_pick ~serialize ~busy ~slice_end heads in
          let before = !reads in
          let got =
            Engine.pick ~serialize ~slice_end clock live !nlive heads reads
          in
          let ok =
            got = expected
            && !reads - before <= !nlive
            &&
            let floor_ok = ref true in
            Array.iteri
              (fun i h -> if i <> got && h < clock.Engine.floor then floor_ok := false)
              heads;
            !floor_ok
          in
          if got >= 0 then begin
            let head = heads.(got) in
            let start = if serialize && busy > head then busy else head in
            if serialize then clock.Engine.busy <- start +. float_of_int service;
            (* the ring drains on a [service] of 0 *)
            set_head got (if service = 0 then infinity else next_head)
          end;
          ok)
        steps)

(* ------------------------------------------------------------------ *)
(* Ring properties                                                      *)

(* A random op tape: [true] = push the next integer from a counter,
   [false] = take. Checked against a plain FIFO queue model: [top]
   must name the handle [take] then removes, and both must return the
   [Ring.none] sentinel exactly when the model is empty. *)
let ring_qcheck_cases =
  let open QCheck in
  let ops_gen =
    Gen.(pair (int_range 1 8) (list_size (int_range 0 200) bool))
  in
  [
    Test.make ~name:"ring agrees with a queue model (FIFO + conservation)"
      ~count:200 (make ops_gen)
      (fun (capacity, ops) ->
        let r = Ring.create ~capacity in
        let model = Queue.create () in
        let next = ref 0 in
        let ok = ref true in
        List.iter
          (fun op ->
            if op then begin
              let accepted = Ring.push r !next in
              let model_accepts = Queue.length model < capacity in
              if accepted <> model_accepts then ok := false;
              if accepted then Queue.add !next model;
              incr next
            end
            else begin
              let top = Ring.top r in
              let taken = Ring.take r in
              let expected =
                if Queue.is_empty model then Ring.none else Queue.pop model
              in
              if top <> expected || taken <> expected then ok := false
            end;
            if Ring.top r <> (if Queue.is_empty model then Ring.none else Queue.peek model)
            then ok := false;
            if Ring.length r <> Queue.length model then ok := false;
            if Ring.pushed r - Ring.popped r <> Ring.length r then ok := false;
            if Ring.is_empty r <> (Queue.length model = 0) then ok := false;
            if Ring.is_full r <> (Queue.length model = capacity) then
              ok := false)
          ops;
        !ok);
    Test.make ~name:"ring wrap-around preserves FIFO" ~count:100
      (make Gen.(pair (int_range 1 6) (int_range 10 300)))
      (fun (capacity, rounds) ->
        (* Fill/drain cycles force head/tail to wrap many times. *)
        let r = Ring.create ~capacity in
        let next = ref 0 and expect = ref 0 in
        let ok = ref true in
        for _ = 1 to rounds do
          while Ring.push r !next do
            incr next
          done;
          if Ring.top r <> !expect then ok := false;
          let v = ref (Ring.take r) in
          while !v <> Ring.none do
            if !v <> !expect then ok := false;
            incr expect;
            v := Ring.take r
          done
        done;
        !ok && !next = !expect);
    Test.make ~name:"ring full/empty edges" ~count:50
      (make Gen.(int_range 1 8))
      (fun capacity ->
        let r = Ring.create ~capacity in
        let filled = ref 0 in
        while Ring.push r !filled do
          incr filled
        done;
        (* exactly capacity accepted, then refusal without corruption *)
        !filled = capacity && Ring.is_full r
        && (not (Ring.push r 999))
        && Ring.top r = 0
        && Ring.length r = capacity
        &&
        (for _ = 1 to capacity do
           ignore (Ring.take r)
         done;
         Ring.is_empty r && Ring.take r = Ring.none && Ring.top r = Ring.none
         && Ring.pushed r = capacity
         && Ring.popped r = capacity));
    Test.make ~name:"pool accounting under random take/free" ~count:200
      (make
         Gen.(pair (int_range 1 8) (list_size (int_range 0 200) (pair bool nat))))
      (fun (capacity, ops) ->
        (* [true] = take when [available] allows it (else the guarded
           take must raise), [false] = free the k-th handle in flight.
           Handles in flight must be distinct and inside the pool. *)
        let pool = Packet.create_pool ~capacity in
        let held = ref [] in
        let ok = ref true in
        List.iter
          (fun (take, k) ->
            if take then begin
              if Packet.available pool > 0 then begin
                let p = Packet.take pool in
                if p < 0 || p >= capacity || List.mem p !held then ok := false;
                held := p :: !held
              end
              else
                match Packet.take pool with
                | _ -> ok := false
                | exception Invalid_argument _ -> ()
            end
            else begin
              match !held with
              | [] -> ()
              | hs ->
                  let p = List.nth hs (k mod List.length hs) in
                  Packet.free pool p;
                  held := List.filter (fun q -> q <> p) hs
            end;
            let n = List.length !held in
            if Packet.capacity pool - Packet.available pool <> Packet.in_flight pool
               || Packet.in_flight pool <> n
            then ok := false)
          ops;
        (* returning everything refills the pool; one more free is a
           double free *)
        List.iter (Packet.free pool) !held;
        !ok
        && Packet.available pool = capacity
        && match Packet.free pool 0 with
           | () -> false
           | exception Invalid_argument _ -> true);
  ]

let suite =
  [
    Alcotest.test_case "event heap" `Quick test_heap;
    Alcotest.test_case "heap ordering property" `Quick test_heap_property;
    Alcotest.test_case "heap FIFO on equal keys" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap FIFO property" `Quick test_heap_fifo_property;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "measured tracks predicted" `Slow test_measured_tracks_predicted;
    Alcotest.test_case "SLOs hold on the dataplane" `Slow test_slo_satisfied;
    Alcotest.test_case "delivered <= offered" `Quick test_delivered_bounded_by_offered;
    Alcotest.test_case "overload drops" `Quick test_overload_drops;
    Alcotest.test_case "latency scales with bounces" `Quick test_latency_scales_with_bounces;
    Alcotest.test_case "token bucket enforces t_max" `Quick test_token_bucket_enforces_tmax;
    Alcotest.test_case "traffic modes" `Quick test_traffic_modes;
    Alcotest.test_case "ofswitch contention" `Quick test_ofswitch_contention;
    Alcotest.test_case "smartnic path" `Quick test_smartnic_path;
    Alcotest.test_case "engine determinism" `Quick test_engine_determinism;
    Alcotest.test_case "engine tracks sim" `Slow test_engine_tracks_sim;
    Alcotest.test_case "engine overload conserves" `Quick
      test_engine_overload_conserves;
    Alcotest.test_case "engine conservation aggregate" `Slow
      test_engine_conservation_aggregate;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) ring_qcheck_cases
  @ [ Alcotest.test_case "golden executor results" `Quick test_golden_executors;
      Alcotest.test_case "engine pick reads few heads" `Quick test_engine_heads_read;
      QCheck_alcotest.to_alcotest ~long:false pick_qcheck_case;
      Alcotest.test_case "sim events pop in push order across queues" `Quick
        test_sim_event_order;
      QCheck_alcotest.to_alcotest ~long:false event_order_qcheck_case;
      Alcotest.test_case "sim matches the reference on the golden cases" `Quick
        test_sim_matches_ref_golden;
      QCheck_alcotest.to_alcotest ~long:false sim_ref_qcheck_case ]
