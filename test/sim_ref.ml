(* [Sim.run] as it was before its event loop split the shared heap:
   one {!Heap} holds every generator and in-flight batch, each batch is
   a record behind its own [Step] value, and a batch whose route never
   leaves the switch is still built and stepped. Kept as the reference
   that the differential test in [test_dataplane.ml] holds [Sim.run]
   to; the result types, [traffic] and [verdict] are [Sim]'s. *)

open Lemur_placer
open Lemur_util
open Lemur_dataplane
open Sim

(* The deployment's layout lives in {!Route}, shared with the
   packet-level Engine so both executors walk identical service paths.
   [run] compiles each route into an array of hops whose servers, cores
   and NF costs are resolved up front, so the event loop does no
   lookups. *)

(* Busy-until resources. An all-float record is stored flat, so
   advancing [busy_until] does not allocate. *)
type resource = { mutable busy_until : float }

(* One NF's per-packet cycles: a draw from its datasheet law, or a
   constant (classified ACLs cost their mean over the flow corpus). *)
type nf = Draw of Lemur_util.Prng.law | Mean of float

type server_rt = {
  demux : resource;
  link_in : resource;  (** ToR -> server direction *)
  link_out : resource;
  capacity : float;
  clock : float;
}

(* A run-to-completion subgroup: its NFs and one replica per core, each
   with the NF costs on that core's socket. *)
type subgroup = {
  sg_nodes : int array;
  lb : float;  (* multi-core load-balancing cycles, 0 on one core *)
  replicas : (resource * nf array) array;
}

type hop =
  | Of_hop of Lemur_platform.Ofswitch.t
  | Server_hop of {
      srv : server_rt;
      nic : (int * nf * float) array;  (* node id, cost, eBPF speedup *)
      sgs : subgroup array;
    }

type batch = {
  chain : int;
  t_ingress : float;
  flow : int;  (* 5-tuple hash: keeps replica choice flow-consistent *)
  hops : hop array;
  mutable next : int;
}

type event = Generate of int | Step of batch

(* All-float, so the token bucket and delivered tally update in place. *)
type meter = {
  mutable tokens : float;
  mutable last_refill : float;
  mutable delivered_bits : float;
}

type chain_rt = {
  layout : Route.chain;
  routes : hop array array;
  fractions : float array;
  route_batches : int array;  (* per route: batches admitted to it *)
  batch_interval : float;
  t_max : float;
  gen : event;
  m : meter;
  mutable dropped : int;
  mutable lats : float array;  (* post-warmup latencies, arrival order *)
  mutable n_lats : int;
  nf_pkts : int array;  (* per graph node: packets processed *)
  (* telemetry instruments, fed once the run ends *)
  tm_drops : Lemur_telemetry.Counter.t;
  tm_latency : Lemur_telemetry.Histogram.t;
}

let link_queue_limit = Units.ms 1.0
let core_queue_limit = Units.ms 2.0
let warmup = Units.ms 5.0

(* Service start on a resource: [Float.max now busy_until], written as a
   compare because [Float.max] would box its operands. *)
let[@inline] start_on res now =
  if res.busy_until > now then res.busy_until else now

let[@inline] cycles prng = function
  | Draw law -> Prng.sample prng law
  | Mean m -> m

let run ?(seed = 7) ?(duration = Units.ms 50.0) ?(batch_pkts = 32)
    ?(overdrive = 1.08) ?(traffic = Long_lived) ?(offered = []) ~config
    ~placement () =
  let tm = Lemur_telemetry.Telemetry.current () in
  Lemur_telemetry.Telemetry.with_span tm "dataplane.sim.run" @@ fun () ->
  let prng = Prng.create ~seed in
  let topo = config.Plan.topology in
  let tor_latency = topo.Lemur_topology.Topology.tor.Lemur_platform.Pisa.latency in
  let pkt_bits = Units.bytes_to_bits config.Plan.pkt_bytes in
  let batch_bits = pkt_bits *. float_of_int batch_pkts in
  let pkts = float_of_int batch_pkts in
  let metron = config.Plan.metron_steering in
  (* OpenFlow switch contention: one shared full-duplex link. *)
  let of_link = { busy_until = 0.0 } in
  let servers = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace servers s.Lemur_platform.Server.name
        {
          demux = { busy_until = 0.0 };
          link_in = { busy_until = 0.0 };
          link_out = { busy_until = 0.0 };
          capacity = Lemur_platform.Server.nic_capacity s;
          clock = s.Lemur_platform.Server.clock_hz;
        })
    topo.Lemur_topology.Topology.servers;
  let acl_cls = Nf_cost.acl_classifier config in
  let short_flows = traffic = Short_flows in
  let chains =
    Array.of_list
      (List.mapi
         (fun i (layout : Route.chain) ->
           let chain_id = layout.report.Strategy.plan.Plan.input.Plan.id in
           let graph = layout.report.Strategy.plan.Plan.input.Plan.graph in
           let offered = layout.offered in
           (* Classified ACL nodes cost their mean cycles over the same
              header corpus Engine injects. *)
           let acl_mean = Array.make (Lemur_spec.Graph.size graph) None in
           (let headers = Nf_cost.flow_headers acl_cls graph in
            List.iter
              (fun node ->
                acl_mean.(node.Lemur_spec.Graph.id) <-
                  Option.map
                    (fun cls -> Lemur_classifier.Classifier.mean_cycles cls headers)
                    (acl_cls node))
              (Lemur_spec.Graph.nodes graph));
           let nf ~socket id =
             match acl_mean.(id) with
             | Some mean -> Mean (mean *. Nf_cost.numa_factor ~socket)
             | None ->
                 Draw (Nf_cost.law ~short_flows (Lemur_spec.Graph.node graph id) ~socket)
           in
           (* Cores are shared by every route through the subgroup. *)
           let subgroups_rt =
             Array.map
               (fun (sg : Route.subgroup) ->
                 {
                   sg_nodes = sg.Route.sg_nodes;
                   lb = sg.Route.lb;
                   replicas =
                     Array.map
                       (fun (core : Lemur_codegen.Bessgen.core) ->
                         let nfs = Array.map (nf ~socket:core.socket) sg.Route.sg_nodes in
                         ({ busy_until = 0.0 }, nfs))
                       sg.Route.replicas;
                 })
               layout.subgroups
           in
           let compile_visit = function
             | Route.Of_visit ->
                 Option.map (fun sw -> Of_hop sw) topo.Lemur_topology.Topology.ofswitch
             | Route.Server_visit { server; nic_nodes; subgroups } ->
                 let nic =
                   Array.of_list
                     (List.map
                        (fun id ->
                          let kind =
                            (Lemur_spec.Graph.node graph id).Lemur_spec.Graph.instance
                              .Lemur_nf.Instance.kind
                          in
                          (id, nf ~socket:Nf_cost.nic_socket id,
                           Lemur_nf.Datasheet.ebpf_speedup kind))
                        nic_nodes)
                 in
                 let sgs =
                   Array.of_list (List.map (Array.get subgroups_rt) subgroups)
                 in
                 Some (Server_hop { srv = Hashtbl.find servers server; nic; sgs })
           in
           let batch_interval =
             if offered <= 0.0 then infinity else batch_bits /. offered *. 1e9
           in
           {
             layout;
             routes =
               Array.map
                 (fun r -> Array.of_list (List.filter_map compile_visit r.Route.visits))
                 layout.routes;
             fractions = layout.fractions;
             route_batches = Array.make (Array.length layout.routes) 0;
             batch_interval;
             t_max = layout.report.Strategy.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_max;
             gen = Generate i;
             m = { tokens = batch_bits *. 4.0; last_refill = 0.0; delivered_bits = 0.0 };
             dropped = 0;
             lats =
               Array.make
                 (if batch_interval < infinity then
                    1 + int_of_float ((warmup +. duration) /. batch_interval)
                  else 0)
                 0.0;
             n_lats = 0;
             nf_pkts = Array.make (Lemur_spec.Graph.size graph) 0;
             tm_drops =
               Lemur_telemetry.Telemetry.counter tm
                 (Printf.sprintf "dataplane.chain.%s.dropped_batches" chain_id);
             tm_latency =
               Lemur_telemetry.Telemetry.histogram tm
                 (Printf.sprintf "dataplane.chain.%s.latency_ns" chain_id);
           })
         (Route.layout ~offered ~overdrive config placement))
  in
  let events = Heap.create () in
  let horizon = warmup +. duration in
  Array.iter
    (fun c ->
      if c.batch_interval < infinity then
        Heap.push events (Prng.float prng c.batch_interval) c.gen)
    chains;
  let deliver c batch now =
    if now > warmup && batch.t_ingress > warmup then begin
      c.m.delivered_bits <- c.m.delivered_bits +. batch_bits;
      if c.n_lats = Array.length c.lats then
        c.lats <- Array.append c.lats (Array.make (max 16 c.n_lats) 0.0);
      c.lats.(c.n_lats) <- now -. batch.t_ingress;
      c.n_lats <- c.n_lats + 1
    end
  in
  let drop c = c.dropped <- c.dropped + 1 in
  (* Serve one batch at its next hop; [ev] is the batch's own [Step]
     event, re-queued for the hop after. *)
  let step ev batch now =
    let c = chains.(batch.chain) in
    if batch.next >= Array.length batch.hops then deliver c batch now
    else
      match batch.hops.(batch.next) with
      | Of_hop sw ->
          let tx = batch_bits /. sw.Lemur_platform.Ofswitch.capacity *. 1e9 in
          let arrive = now +. tor_latency in
          let start = start_on of_link arrive in
          if start -. arrive > link_queue_limit then drop c
          else begin
            of_link.busy_until <- start +. tx;
            batch.next <- batch.next + 1;
            Heap.push events
              (start +. tx +. (2.0 *. Route.wire_delay) +. sw.Lemur_platform.Ofswitch.latency)
              ev
          end
      | Server_hop { srv; nic; sgs } ->
          (* ToR then downlink serialization *)
          let t0 = now +. tor_latency in
          let tx = batch_bits /. srv.capacity *. 1e9 in
          let start = start_on srv.link_in t0 in
          if start -. t0 > link_queue_limit then drop c
          else begin
            srv.link_in.busy_until <- start +. tx;
            (* inline SmartNIC processing on ingress *)
            let t = ref (start +. tx +. Route.wire_delay) in
            for k = 0 to Array.length nic - 1 do
              let id, cost, speed = nic.(k) in
              c.nf_pkts.(id) <- c.nf_pkts.(id) + batch_pkts;
              t := !t +. (cycles prng cost *. pkts /. (srv.clock *. speed) *. 1e9)
            done;
            (* demux + subgroup cores, sequentially *)
            let ok = ref true in
            if Array.length sgs > 0 then begin
              let demux_service =
                if metron then 0.0
                else Route.demux_cycles_per_pkt *. pkts /. srv.clock *. 1e9
              in
              let dstart = if metron then !t else start_on srv.demux !t in
              if (not metron) && dstart -. !t > core_queue_limit then ok := false
              else begin
                if not metron then srv.demux.busy_until <- dstart +. demux_service;
                t := dstart +. demux_service;
                let k = ref 0 in
                while !ok && !k < Array.length sgs do
                  let sg = sgs.(!k) in
                  (* HashLB: flow-consistent replica choice *)
                  let core, nfs =
                    sg.replicas.(batch.flow mod Array.length sg.replicas)
                  in
                  let nf_cycles = ref 0.0 in
                  for j = 0 to Array.length nfs - 1 do
                    nf_cycles := !nf_cycles +. cycles prng nfs.(j)
                  done;
                  let total =
                    (0.0 +. !nf_cycles) +. Lemur_bess.Cost.nsh_overhead_cycles +. sg.lb
                  in
                  let service = total *. pkts /. srv.clock *. 1e9 in
                  let cstart = start_on core !t in
                  if cstart -. !t > core_queue_limit then ok := false
                  else begin
                    for j = 0 to Array.length sg.sg_nodes - 1 do
                      let id = sg.sg_nodes.(j) in
                      c.nf_pkts.(id) <- c.nf_pkts.(id) + batch_pkts
                    done;
                    core.busy_until <- cstart +. service;
                    t := cstart +. service
                  end;
                  incr k
                done
              end
            end;
            if not !ok then drop c
            else begin
              (* Uplink back to the ToR. The cores pace TX (the rate
                 LP keeps their aggregate under the link rate), so the
                 TX queue only absorbs transient bursts — lossless. *)
              let ustart = start_on srv.link_out !t in
              srv.link_out.busy_until <- ustart +. tx;
              batch.next <- batch.next + 1;
              Heap.push events (ustart +. tx +. Route.wire_delay) ev
            end
          end
  in
  let generate i now =
    let c = chains.(i) in
    (* refill the t_max token bucket *)
    if c.t_max < infinity then begin
      let cap = batch_bits *. 8.0 in
      let filled = c.m.tokens +. ((now -. c.m.last_refill) /. 1e9 *. c.t_max) in
      c.m.tokens <- (if filled > cap then cap else filled);
      c.m.last_refill <- now
    end;
    if c.t_max = infinity || c.m.tokens >= batch_bits then begin
      if c.t_max < infinity then c.m.tokens <- c.m.tokens -. batch_bits;
      (* pick a service path *)
      let route = Route.pick c.fractions (Prng.float prng 1.0) in
      c.route_batches.(route) <- c.route_batches.(route) + 1;
      (* a few dozen concurrent flows per chain (footnote 6) *)
      let flow = Prng.int prng Nf_cost.flows in
      let batch =
        { chain = i; t_ingress = now; flow; hops = c.routes.(route); next = 0 }
      in
      (* ingress ToR traversal then walk the route *)
      step (Step batch) batch (now +. tor_latency)
    end
    else drop c;
    let next = now +. c.batch_interval in
    if next < horizon then Heap.push events next c.gen
  in
  let cutoff = horizon +. Units.ms 5.0 in
  while not (Heap.is_empty events) do
    let now = Heap.min_key events in
    match Heap.take events with
    | _ when now > cutoff -> ()
    | Generate i -> generate i now
    | Step b as ev -> step ev b now
  done;
  (* Hand the run's tallies to telemetry, then sort each chain's
     latencies once for the percentiles. *)
  let module Counter = Lemur_telemetry.Counter in
  Array.iter
    (fun c ->
      Route.credit_switch_nfs c.layout
        (Array.map (fun n -> batch_pkts * n) c.route_batches);
      Array.iteri (fun id n -> Counter.incr ~by:n c.layout.nf_counters.(id)) c.nf_pkts;
      Counter.incr ~by:c.dropped c.tm_drops;
      (* arrival order: [Stats.tail_summary] below reorders the buffer *)
      Lemur_telemetry.Histogram.record_many c.tm_latency c.lats c.n_lats)
    chains;
  let chain_results =
    Array.to_list
      (Array.map
         (fun c ->
           let mean, p50, p99, max_lat = Stats.tail_summary c.lats c.n_lats in
           {
             chain_id = c.layout.report.Strategy.plan.Plan.input.Plan.id;
             offered = c.layout.offered;
             delivered = c.m.delivered_bits /. duration *. 1e9;
             mean_latency = mean;
             p50_latency = p50;
             p99_latency = p99;
             max_latency = max_lat;
             batches_dropped = c.dropped;
             batches_delivered = c.n_lats;
           })
         chains)
  in
  (* Post-run SLO tallies: this run's verdict on each chain. *)
  List.iter2
    (fun c r ->
      let v =
        verdict ~slack:0.0 c.layout.report.Strategy.plan.Plan.input.Plan.slo r
      in
      let tally suffix =
        Lemur_telemetry.Counter.incr
          (Lemur_telemetry.Telemetry.counter tm ("dataplane.slo." ^ suffix))
      in
      tally
        (if v.Lemur_slo.Slo.throughput_met then "throughput_ok"
         else "throughput_violations");
      tally
        (if v.Lemur_slo.Slo.latency_met then "latency_ok"
         else "latency_violations"))
    (Array.to_list chains) chain_results;
  {
    chains = chain_results;
    aggregate_throughput = Listx.sum_by (fun r -> r.delivered) chain_results;
    duration;
  }
