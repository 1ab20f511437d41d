open Lemur_placer
open Lemur_util

type chain_result = {
  chain_id : string;
  offered : float;
  delivered : float;
  mean_latency : float;
  p50_latency : float;
  p99_latency : float;
  max_latency : float;
  batches_dropped : int;
  batches_delivered : int;
}

type result = {
  chains : chain_result list;
  aggregate_throughput : float;
  duration : float;
}

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

(* In-flight batches as int slots into columns, so admitting a batch
   allocates nothing once they have grown; free slots chain through [next]. *)
type slots = {
  mutable chain : int array;
  mutable route : int array;  (* index into the chain's routes *)
  mutable next : int array;  (* the hop to serve next *)
  mutable flow : int array;  (* 5-tuple hash: keeps replica choice flow-consistent *)
  mutable t_ingress : float array;
  mutable free : int;  (* first free slot, or -1 *)
}

let widen a fill =
  let b = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let release sl s =
  sl.next.(s) <- sl.free;
  sl.free <- s

let alloc sl =
  if sl.free < 0 then begin
    let n = Array.length sl.chain in
    sl.chain <- widen sl.chain 0;
    sl.route <- widen sl.route 0;
    sl.next <- widen sl.next 0;
    sl.flow <- widen sl.flow 0;
    sl.t_ingress <- widen sl.t_ingress 0.0;
    for s = Array.length sl.chain - 1 downto n do release sl s done
  end;
  let s = sl.free in
  sl.free <- sl.next.(s);
  s

(* A binary min-heap of ints keyed by (time, sequence number), stored
   column-wise, so a push allocates nothing once the arrays have grown. *)
type queue = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable len : int;
}

(* Generators (one entry per chain) and batches queue apart but take
   sequence numbers from one counter, so popping the earlier top by (time,
   sequence) is one heap's order: equal times pop in push order. *)
type events = { gens : queue; steps : queue; mutable seq : int }

let queue () = { keys = [||]; seqs = [||]; vals = [||]; len = 0 }
let events () = { gens = queue (); steps = queue (); seq = 0 }

let[@inline] set q i key seq v =
  q.keys.(i) <- key; q.seqs.(i) <- seq; q.vals.(i) <- v

(* (key, seq) pops before entry [j] of [r]. *)
let[@inline] lt key seq r j = key < r.keys.(j) || (key = r.keys.(j) && seq < r.seqs.(j))

(* [enqueue] and [take] sift a hole: the entry being placed stays in
   locals (its key unboxed) while the entries it passes shift one level
   into the hole, and it is written once where it stops. *)
let[@inline] enqueue ev q key v =
  if q.len = Array.length q.vals then begin
    q.keys <- widen q.keys 0.0;
    q.seqs <- widen q.seqs 0;
    q.vals <- widen q.vals 0
  end;
  let seq = ev.seq and i = ref q.len in
  ev.seq <- seq + 1;
  q.len <- q.len + 1;
  while !i > 0 && lt key seq q ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    set q !i q.keys.(p) q.seqs.(p) q.vals.(p);
    i := p
  done;
  set q !i key seq v

(* Removes the top entry and returns its value; the last entry sifts
   down from the root. *)
let take q =
  let top = q.vals.(0) and last = q.len - 1 in
  let key = q.keys.(last) and seq = q.seqs.(last) and v = q.vals.(last) in
  let i = ref 0 and go = ref true in
  q.len <- last;
  while !go do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < last && lt q.keys.(l + 1) q.seqs.(l + 1) q l then l + 1 else l in
    if l < last && not (lt key seq q c) then begin
      set q !i q.keys.(c) q.seqs.(c) q.vals.(c);
      i := c
    end
    else go := false
  done;
  if last > 0 then set q !i key seq v;
  top

(* The queue whose top pops next ([ev.steps] when both are empty). *)
let next_queue { gens = g; steps = s; _ } =
  if g.len > 0 && (s.len = 0 || lt g.keys.(0) g.seqs.(0) s 0) then g else s

type event = Generate of int | Step of int

let push ev key = function
  | Generate i -> enqueue ev ev.gens key i
  | Step s -> enqueue ev ev.steps key s

let pop ev =
  let q = next_queue ev in
  if q.len = 0 then None
  else
    let key = q.keys.(0) in
    Some (key, if q == ev.gens then Generate (take q) else Step (take q))

(* The served event's time. [generate] and [step] read it rather than
   take it boxed, and setting an all-float field does not allocate. *)
type clock = { mutable now : float }

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
  m : meter;
  mutable dropped : int;
  mutable lats : float array;  (* post-warmup latencies, arrival order *)
  mutable n_lats : int;
  nf_pkts : int array;  (* per graph node: packets processed *)
}

let link_queue_limit = Units.ms 1.0
let core_queue_limit = Units.ms 2.0
let warmup = Units.ms 5.0

type traffic = Long_lived | Short_flows

(* Service start on a resource: [Float.max now busy_until], written as a
   compare because [Float.max] would box its operands. *)
let[@inline] start_on res now =
  if res.busy_until > now then res.busy_until else now

let[@inline] cycles prng = function
  | Draw law -> Prng.sample prng law
  | Mean m -> m

let verdict ~slack slo r =
  Lemur_slo.Slo.verdict ~slack slo ~offered:r.offered ~delivered:r.delivered
    ~p99:r.p99_latency ~batches:r.batches_delivered

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
  let servers =
    List.map
      (fun s ->
        ( s.Lemur_platform.Server.name,
          { demux = { busy_until = 0.0 }; link_in = { busy_until = 0.0 };
            link_out = { busy_until = 0.0 }; capacity = Lemur_platform.Server.nic_capacity s;
            clock = s.Lemur_platform.Server.clock_hz } ))
      topo.Lemur_topology.Topology.servers
  in
  let acl_cls = Nf_cost.acl_classifier config in
  let short_flows = traffic = Short_flows in
  let chains =
    Array.of_list
      (List.map
         (fun (layout : Route.chain) ->
           let graph = layout.report.Strategy.plan.Plan.input.Plan.graph in
           let offered = layout.offered in
           (* Classified ACL nodes cost their mean cycles over the same
              header corpus Engine injects. *)
           let headers = Nf_cost.flow_headers acl_cls graph in
           let nf ~socket id =
             let node = Lemur_spec.Graph.node graph id in
             match acl_cls node with
             | Some cls ->
                 let mean = Lemur_classifier.Classifier.mean_cycles cls headers in
                 Mean (mean *. Nf_cost.numa_factor ~socket)
             | None -> Draw (Nf_cost.law ~short_flows node ~socket)
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
                   Array.map
                     (fun id ->
                       let node = Lemur_spec.Graph.node graph id in
                       let kind = node.Lemur_spec.Graph.instance.Lemur_nf.Instance.kind in
                       (id, nf ~socket:Nf_cost.nic_socket id, Lemur_nf.Datasheet.ebpf_speedup kind))
                     (Array.of_list nic_nodes)
                 in
                 let sgs =
                   Array.of_list (List.map (Array.get subgroups_rt) subgroups)
                 in
                 Some (Server_hop { srv = List.assoc server servers; nic; sgs })
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
           })
         (Route.layout ~offered ~overdrive config placement))
  in
  let ev = events () in
  let horizon = warmup +. duration in
  Array.iteri
    (fun i c ->
      if c.batch_interval < infinity then
        enqueue ev ev.gens (Prng.float prng c.batch_interval) i)
    chains;
  let clock = { now = 0.0 } in
  let sl = { chain = [||]; route = [||]; next = [||]; flow = [||]; t_ingress = [||]; free = -1 } in
  let[@inline] deliver c t_ingress now =
    if now > warmup && t_ingress > warmup then begin
      c.m.delivered_bits <- c.m.delivered_bits +. batch_bits;
      if c.n_lats = Array.length c.lats then
        c.lats <- Array.append c.lats (Array.make (max 16 c.n_lats) 0.0);
      c.lats.(c.n_lats) <- now -. t_ingress;
      c.n_lats <- c.n_lats + 1
    end
  in
  let drop c = c.dropped <- c.dropped + 1 in
  let lose c s = drop c; release sl s in
  (* Serve batch [s] at its next hop at [clock.now], and queue it for
     the hop after; a delivered or dropped batch frees its slot. *)
  let step s =
    let now = clock.now in
    let c = chains.(sl.chain.(s)) in
    let hops = c.routes.(sl.route.(s)) in
    let next = sl.next.(s) in
    if next >= Array.length hops then begin
      deliver c sl.t_ingress.(s) now;
      release sl s
    end
    else
      match hops.(next) with
      | Of_hop sw ->
          let tx = batch_bits /. sw.Lemur_platform.Ofswitch.capacity *. 1e9 in
          let arrive = now +. tor_latency in
          let start = start_on of_link arrive in
          if start -. arrive > link_queue_limit then lose c s
          else begin
            of_link.busy_until <- start +. tx;
            sl.next.(s) <- next + 1;
            enqueue ev ev.steps
              (start +. tx +. (2.0 *. Route.wire_delay) +. sw.Lemur_platform.Ofswitch.latency)
              s
          end
      | Server_hop { srv; nic; sgs } ->
          (* ToR then downlink serialization *)
          let t0 = now +. tor_latency in
          let tx = batch_bits /. srv.capacity *. 1e9 in
          let start = start_on srv.link_in t0 in
          if start -. t0 > link_queue_limit then lose c s
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
                let flow = sl.flow.(s) in
                let k = ref 0 in
                while !ok && !k < Array.length sgs do
                  let sg = sgs.(!k) in
                  (* HashLB: flow-consistent replica choice *)
                  let core, nfs = sg.replicas.(flow mod Array.length sg.replicas) in
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
            if not !ok then lose c s
            else begin
              (* Uplink back to the ToR. The cores pace TX (the rate
                 LP keeps their aggregate under the link rate), so the
                 TX queue only absorbs transient bursts — lossless. *)
              let ustart = start_on srv.link_out !t in
              srv.link_out.busy_until <- ustart +. tx;
              sl.next.(s) <- next + 1;
              enqueue ev ev.steps (ustart +. tx +. Route.wire_delay) s
            end
          end
  in
  (* Chain [i]'s generator fires at [clock.now]. *)
  let generate i =
    let now = clock.now in
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
      (* ingress ToR traversal then walk the route; a route that never
         leaves the switch is delivered right there *)
      if Array.length c.routes.(route) = 0 then deliver c now (now +. tor_latency)
      else begin
        let s = alloc sl in
        sl.chain.(s) <- i;
        sl.route.(s) <- route;
        sl.next.(s) <- 0;
        sl.flow.(s) <- flow;
        sl.t_ingress.(s) <- now;
        clock.now <- now +. tor_latency;
        step s
      end
    end
    else drop c;
    let next = now +. c.batch_interval in
    if next < horizon then enqueue ev ev.gens next i
  in
  (* Every event is queued later than the one that queued it, so popped
     times never fall: the first one past [cutoff] ends the run. *)
  let cutoff = horizon +. Units.ms 5.0 in
  let rec loop () =
    let q = next_queue ev in
    if q.len > 0 && not (q.keys.(0) > cutoff) then begin
      clock.now <- q.keys.(0);
      let v = take q in
      if q == ev.gens then generate v else step v;
      loop ()
    end
  in
  loop ();
  (* Hand the run's tallies to telemetry, then sort each chain's
     latencies once for the percentiles. *)
  let module Counter = Lemur_telemetry.Counter in
  let module Telemetry = Lemur_telemetry.Telemetry in
  (* A disabled sink's instruments are never read: build none. *)
  let traced = Telemetry.enabled tm in
  let chain_id c = c.layout.report.Strategy.plan.Plan.input.Plan.id in
  Array.iter
    (fun c ->
      Route.credit_switch_nfs c.layout
        (Array.map (fun n -> batch_pkts * n) c.route_batches);
      Array.iteri (fun id n -> Counter.incr ~by:n c.layout.nf_counters.(id)) c.nf_pkts;
      if traced then begin
        let name what = Printf.sprintf "dataplane.chain.%s.%s" (chain_id c) what in
        Counter.incr ~by:c.dropped (Telemetry.counter tm (name "dropped_batches"));
        (* arrival order: [Stats.tail_summary] below reorders the buffer *)
        Lemur_telemetry.Histogram.record_many
          (Telemetry.histogram tm (name "latency_ns"))
          c.lats c.n_lats
      end)
    chains;
  let chain_results =
    Array.to_list
      (Array.map
         (fun c ->
           let mean, p50, p99, max_lat = Stats.tail_summary c.lats c.n_lats in
           {
             chain_id = chain_id c;
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
  if traced then
    List.iter2
      (fun c r ->
        let v = verdict ~slack:0.0 c.layout.report.Strategy.plan.Plan.input.Plan.slo r in
        let tally met what =
          Counter.incr
            (Telemetry.counter tm
               (Printf.sprintf "dataplane.slo.%s_%s" what (if met then "ok" else "violations")))
        in
        tally v.Lemur_slo.Slo.throughput_met "throughput";
        tally v.Lemur_slo.Slo.latency_met "latency")
      (Array.to_list chains) chain_results;
  {
    chains = chain_results;
    aggregate_throughput = Listx.sum_by (fun r -> r.delivered) chain_results;
    duration;
  }

let pp_result ppf r =
  Format.fprintf ppf "aggregate measured: %a@." Units.pp_rate r.aggregate_throughput;
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-8s offered %a delivered %a latency %.1f us (p99 %.1f, max %.1f) drops %d@."
        c.chain_id Units.pp_rate c.offered Units.pp_rate c.delivered
        (Units.to_us c.mean_latency) (Units.to_us c.p99_latency)
        (Units.to_us c.max_latency) c.batches_dropped)
    r.chains
