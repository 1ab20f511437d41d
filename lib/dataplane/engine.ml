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
  injected_pkts : int;
  delivered_pkts : int;
  dropped_pkts : int;
  shaped_pkts : int;
  in_flight_pkts : int;
}

type element_stat = {
  el_name : string;
  el_pulled : int;
  el_pushed : int;
  el_dropped : int;
  el_queued : int;
}

type result = {
  chains : chain_result list;
  elements : element_stat list;
  aggregate_throughput : float;
  duration : float;
  breaths : int;
  total_served : int;
  pool_exhausted : int;
  wall_s : float;
  hops_per_sec : float;
}

let warmup = Units.ms 1.0
let batch_pkts = 32
let ring_capacity = 512
let pool_capacity = 16384
let max_slice = 50_000.0
let drain_slack = Units.ms 5.0

(* One NF's per-packet cycles: a draw from its datasheet law, or a
   lookup of the packet's flow header in its classifier, scaled by the
   NUMA factor of the socket it runs on. *)
type nf =
  | Law of Prng.law
  | Acl of {
      cls : Lemur_classifier.Classifier.t;
      headers : Lemur_classifier.Rule.header array;
      numa : float;
    }

(* What a worker does to each packet it pulls from an element's ring,
   compiled once per element so the breathing loop reads data instead
   of calling closures. *)
type work =
  | Tx of float  (* serialization onto a link of this many bit/s *)
  | Fixed of float  (* constant service, ns *)
  | Nic of { clock : float; speed : float array; nfs : nf array }
      (* inline SmartNIC NFs, each at its eBPF speedup *)
  | Core of { clock : float; lb : float; nfs : nf array }
      (* a run-to-completion subgroup replica: NF cycles, then NSH and
         load-balancing overhead *)

(* An element is a ring plus the work its owning worker does per
   packet pulled from it; [wire] is propagation added after service;
   [lead] is latency charged on entry (the ToR traversal in front of
   downlink and OpenFlow hops). [slot] is the element's index in its
   owner's [w_elems] and [w_heads]. *)
type element = {
  name : string;
  ring : Ring.t;
  work : work;
  tm_nfs : Lemur_telemetry.Counter.t array;  (* the NFs [work] runs *)
  wire : float;
  lead : float;
  owner : worker;
  slot : int;
  mutable pulled : int;
  mutable ring_drops : int;
  tm_pulled : Lemur_telemetry.Counter.t;
  tm_ring_drops : Lemur_telemetry.Counter.t;
}

(* A worker owns a virtual clock and the elements it breathes over.
   [serialize = false] marks pure-delay resources (the SmartNIC's
   inline datapath, which Sim also models without contention).
   [w_heads.(i)] is the timestamp of the packet at the head of element
   [i]'s ring, [infinity] when it is empty, so the EDF pick reads one
   float array and never touches the rings. [w_live.(0 .. w_nlive-1)]
   lists the slots of the non-empty rings in ascending order, so the
   pick never reads an empty ring's head. *)
and worker = {
  w_name : string;
  w_serialize : bool;
  w_clock : clock;
  mutable w_rev : element list;
  mutable w_elems : element array;
  mutable w_heads : float array;
  mutable w_live : int array;
  mutable w_nlive : int;
}

(* All-float records are stored flat, so writing their fields does not
   allocate; a float field in a mixed record would box on every write.
   [floor] is at most every queued head of the worker, and [infinity]
   while its rings are all empty: see {!pick}. *)
and clock = { mutable busy : float; mutable floor : float }

type meter = {
  mutable next_gen : float;
  mutable tokens : float;
  mutable last_refill : float;
  mutable delivered_bits : float;
}

type chain_rt = {
  idx : int;
  layout : Route.chain;
  hops : element array array array;  (* route -> hop -> replicas *)
  fractions : float array;
  route_injected : int array;  (* per route: packets offered to it *)
  interval : float;  (* ns between generated packets *)
  t_max : float;
  m : meter;
  mutable injected : int;
  mutable delivered_pkts : int;
  mutable dropped : int;
  mutable shaped : int;
  mutable in_flight : int;
  mutable lats : float array;  (* post-warmup latencies, arrival order *)
  mutable n_lats : int;
  tm_injected : Lemur_telemetry.Counter.t;
  tm_delivered : Lemur_telemetry.Counter.t;
  tm_dropped : Lemur_telemetry.Counter.t;
  tm_shaped : Lemur_telemetry.Counter.t;
  tm_latency : Lemur_telemetry.Histogram.t;
}

(* The earliest-service-first pick (contract in engine.mli). The scan
   stops at the first live head [<= bound], [bound] being the later of
   [busy] (on a serializing worker) and [clock.floor]. No start can
   precede [bound], as [clock.floor] is at most every live head, so
   that head starts at the least possible time and no earlier slot
   does: a scan over every slot would pick it too. The compares are
   spelled out because [Float.max] is not inlined across modules and
   would box its operands. *)
let[@inline] pick ~serialize ~slice_end clock (live : int array) nlive
    (heads : float array) reads =
  let busy = clock.busy and floor = clock.floor in
  let best = ref (-1) in
  if not ((serialize && busy >= slice_end) || floor >= slice_end) then begin
    let bound = if serialize && busy > floor then busy else floor in
    (* the least head read and, over the other slots, the next least *)
    let least = ref infinity and rest = ref infinity in
    let j = ref 0 in
    while !j < nlive do
      let i = live.(!j) in
      let head = heads.(i) in
      incr reads;
      if head <= bound then begin
        best := i;
        j := nlive + 1
      end
      else begin
        if head < !least then begin
          rest := !least;
          least := head;
          best := i
        end
        else if head < !rest then rest := head;
        incr j
      end
    done;
    if !j = nlive then
      if !least < slice_end then clock.floor <- !rest
      else begin
        best := -1;
        clock.floor <- !least
      end
  end;
  !best

let[@inline] cycles prng (pool : Packet.pool) p = function
  | Law law -> Prng.sample prng law
  | Acl { cls; headers; numa } ->
      (Lemur_classifier.Classifier.classify cls headers.(pool.Packet.flow.(p)))
        .Lemur_classifier.Classifier.o_cycles
      *. numa

(* Service time of one packet [p] at element [e], ns. Inlined into the
   breathing loop so the result never leaves a register. The float
   expressions keep the order of the rate model's: [acc +. cy /. (clock
   *. speed) *. 1e9] per NIC NF, and
   [Lemur_bess.Cost.subgroup_cycles ~nf_cycles:[Σcy] /. clock *. 1e9]
   per core. *)
let[@inline] service prng (pool : Packet.pool) e p =
  match e.work with
  | Tx capacity -> pool.Packet.bits.(p) /. capacity *. 1e9
  | Fixed ns -> ns
  | Nic { clock; speed; nfs } ->
      let acc = ref 0.0 in
      for k = 0 to Array.length nfs - 1 do
        acc := !acc +. (cycles prng pool p nfs.(k) /. (clock *. speed.(k)) *. 1e9)
      done;
      !acc
  | Core { clock; lb; nfs } ->
      let acc = ref 0.0 in
      for k = 0 to Array.length nfs - 1 do
        acc := !acc +. cycles prng pool p nfs.(k)
      done;
      ((0.0 +. !acc) +. Lemur_bess.Cost.nsh_overhead_cycles +. lb)
      /. clock *. 1e9

let run ?(seed = 7) ?(duration = Units.ms 10.0) ?(overdrive = 1.08)
    ?(offered = []) ~config ~placement () =
  let tm = Lemur_telemetry.Telemetry.current () in
  Lemur_telemetry.Telemetry.with_span tm "dataplane.engine.run" @@ fun () ->
  let prng = Prng.create ~seed in
  let pool = Packet.create_pool ~capacity:pool_capacity in
  let topo = config.Plan.topology in
  let tor_latency = topo.Lemur_topology.Topology.tor.Lemur_platform.Pisa.latency in
  let pkt_bits = Units.bytes_to_bits config.Plan.pkt_bytes in
  let bucket_quantum = pkt_bits *. float_of_int batch_pkts in
  let workers_rev = ref [] in
  let new_worker ?(serialize = true) name =
    let w =
      { w_name = name; w_serialize = serialize;
        w_clock = { busy = 0.0; floor = infinity }; w_rev = [];
        w_elems = [||]; w_heads = [||]; w_live = [||]; w_nlive = 0 }
    in
    workers_rev := w :: !workers_rev;
    w
  in
  let total_served = ref 0 in
  let heads_read = ref 0 in
  let pool_exhausted = ref 0 in
  let elements_rev = ref [] in
  let new_element ~worker ~name ?(tm_nfs = [||]) ~work ~wire ~lead () =
    let e =
      {
        name;
        ring = Ring.create ~capacity:ring_capacity;
        work;
        tm_nfs;
        wire;
        lead;
        owner = worker;
        slot = List.length worker.w_rev;
        pulled = 0;
        ring_drops = 0;
        tm_pulled =
          Lemur_telemetry.Telemetry.counter tm
            (Printf.sprintf "dataplane.engine.el.%s.pulled" name);
        tm_ring_drops =
          Lemur_telemetry.Telemetry.counter tm
            (Printf.sprintf "dataplane.engine.el.%s.dropped" name);
      }
    in
    worker.w_rev <- e :: worker.w_rev;
    elements_rev := e :: !elements_rev;
    e
  in
  let layouts = Route.layout ~offered ~overdrive config placement in
  (* Per-server workers, then one worker per replica core in layout
     order, then the OpenFlow link: worker order is breathing order. *)
  let servers = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let name = s.Lemur_platform.Server.name in
      Hashtbl.replace servers name
        ( new_worker (name ^ ".link_in"),
          new_worker (name ^ ".link_out"),
          new_worker (name ^ ".demux"),
          new_worker ~serialize:false (name ^ ".nic"),
          Lemur_platform.Server.nic_capacity s,
          s.Lemur_platform.Server.clock_hz ))
    topo.Lemur_topology.Topology.servers;
  let chain_cores =
    List.map
      (fun (l : Route.chain) ->
        Array.map
          (fun (sg : Route.subgroup) ->
            Array.map
              (fun (c : Lemur_codegen.Bessgen.core) ->
                new_worker (Printf.sprintf "%s.core%d" c.server c.core))
              sg.Route.replicas)
          l.subgroups)
      layouts
  in
  let of_link = new_worker "of_link" in
  (* With [acl_algo] on, ACL elements classify each packet's 5-tuple
     header instead of sampling the datasheet law. *)
  let acl_cls = Nf_cost.acl_classifier config in
  (* Compile each chain's routes into hop arrays of replica elements. *)
  let chains =
    Array.of_list
      (List.mapi
         (fun idx ((layout : Route.chain), core_workers) ->
           let chain_id = layout.report.Strategy.plan.Plan.input.Plan.id in
           let graph = layout.report.Strategy.plan.Plan.input.Plan.graph in
           (* Flow id -> 5-tuple header, which classified hops look up. *)
           let headers = Nf_cost.flow_headers acl_cls graph in
           let nf ~socket id =
             let node = Lemur_spec.Graph.node graph id in
             match acl_cls node with
             | Some cls -> Acl { cls; headers; numa = Nf_cost.numa_factor ~socket }
             | None -> Law (Nf_cost.law node ~socket)
           in
           let compile_route ri route =
             let el ~worker ~role = new_element ~worker
               ~name:(Printf.sprintf "%s:%s.r%d.%s" worker.w_name chain_id ri role)
             in
             let hops = ref [] in
             List.iter
               (fun visit ->
                 match visit with
                 | Route.Of_visit -> (
                     match topo.Lemur_topology.Topology.ofswitch with
                     | None -> ()
                     | Some sw ->
                         hops :=
                           [| el ~worker:of_link ~role:"of"
                                ~work:(Tx sw.Lemur_platform.Ofswitch.capacity)
                                ~wire:((2.0 *. Route.wire_delay)
                                       +. sw.Lemur_platform.Ofswitch.latency)
                                ~lead:tor_latency () |]
                           :: !hops)
                 | Route.Server_visit { server; nic_nodes; subgroups } ->
                     let link_in, link_out, demux, nic, capacity, clock =
                       Hashtbl.find servers server
                     in
                     hops :=
                       [| el ~worker:link_in ~role:"down" ~work:(Tx capacity)
                            ~wire:Route.wire_delay ~lead:tor_latency () |]
                       :: !hops;
                     if nic_nodes <> [] then begin
                       let ids = Array.of_list nic_nodes in
                       let speed =
                         Array.map
                           (fun id ->
                             Lemur_nf.Datasheet.ebpf_speedup
                               (Lemur_spec.Graph.node graph id)
                                 .Lemur_spec.Graph.instance.Lemur_nf.Instance.kind)
                           ids
                       in
                       let nfs = Array.map (nf ~socket:Nf_cost.nic_socket) ids in
                       hops :=
                         [| el ~worker:nic ~role:"nic"
                              ~tm_nfs:(Array.map (Array.get layout.nf_counters) ids)
                              ~work:(Nic { clock; speed; nfs }) ~wire:0.0
                              ~lead:0.0 () |]
                         :: !hops
                     end;
                     if subgroups <> [] && not config.Plan.metron_steering then
                       hops :=
                         [| el ~worker:demux ~role:"demux"
                              ~work:(Fixed (Route.demux_cycles_per_pkt /. clock *. 1e9))
                              ~wire:0.0 ~lead:0.0 () |]
                         :: !hops;
                     List.iter
                       (fun sg_index ->
                         let sg = layout.subgroups.(sg_index) in
                         let ids = sg.Route.sg_nodes in
                         let replicas =
                           Array.map2
                             (fun core (c : Lemur_codegen.Bessgen.core) ->
                               let nfs = Array.map (nf ~socket:c.socket) ids in
                               el ~worker:core
                                 ~role:(Printf.sprintf "sg%d" sg_index)
                                 ~tm_nfs:(Array.map (Array.get layout.nf_counters) ids)
                                 ~work:(Core { clock; lb = sg.Route.lb; nfs })
                                 ~wire:0.0 ~lead:0.0 ())
                             core_workers.(sg_index) sg.Route.replicas
                         in
                         hops := replicas :: !hops)
                       subgroups;
                     hops :=
                       [| el ~worker:link_out ~role:"up" ~work:(Tx capacity)
                            ~wire:Route.wire_delay ~lead:0.0 () |]
                       :: !hops)
               route.Route.visits;
             Array.of_list (List.rev !hops)
           in
           let interval =
             if layout.offered <= 0.0 then infinity
             else pkt_bits /. layout.offered *. 1e9
           in
           {
             idx;
             layout;
             hops = Array.mapi compile_route layout.routes;
             fractions = layout.fractions;
             route_injected = Array.make (Array.length layout.routes) 0;
             interval;
             t_max = layout.report.Strategy.plan.Plan.input.Plan.slo.Lemur_slo.Slo.t_max;
             m =
               {
                 next_gen = 0.0;
                 tokens = bucket_quantum *. 4.0;
                 last_refill = 0.0;
                 delivered_bits = 0.0;
               };
             injected = 0;
             delivered_pkts = 0;
             dropped = 0;
             shaped = 0;
             in_flight = 0;
             (* room for every packet the generator can offer; [deliver]
                still grows it if rounding lets one more through *)
             lats =
               Array.make
                 (if interval < infinity then
                    1 + int_of_float ((warmup +. duration) /. interval)
                  else 0)
                 0.0;
             n_lats = 0;
             tm_injected =
               Lemur_telemetry.Telemetry.counter tm
                 (Printf.sprintf "dataplane.engine.chain.%s.injected" chain_id);
             tm_delivered =
               Lemur_telemetry.Telemetry.counter tm
                 (Printf.sprintf "dataplane.engine.chain.%s.delivered" chain_id);
             tm_dropped =
               Lemur_telemetry.Telemetry.counter tm
                 (Printf.sprintf "dataplane.engine.chain.%s.dropped" chain_id);
             tm_shaped =
               Lemur_telemetry.Telemetry.counter tm
                 (Printf.sprintf "dataplane.engine.chain.%s.shaped" chain_id);
             tm_latency =
               Lemur_telemetry.Telemetry.histogram tm
                 (Printf.sprintf "dataplane.engine.chain.%s.latency_ns" chain_id);
           })
         (List.combine layouts chain_cores))
  in
  let workers = Array.of_list (List.rev !workers_rev) in
  Array.iter
    (fun w ->
      (* [w_rev] lists the newest element first; reversing in place
         allocates no second list *)
      let elems = Array.of_list w.w_rev in
      let n = Array.length elems in
      for i = 0 to (n / 2) - 1 do
        let e = elems.(i) in
        elems.(i) <- elems.(n - 1 - i);
        elems.(n - 1 - i) <- e
      done;
      w.w_elems <- elems;
      w.w_heads <- Array.make n infinity;
      w.w_live <- Array.make n 0;
      w.w_rev <- [])
    workers;
  (* Same per-chain random phase as Sim's first Generate event. *)
  Array.iter
    (fun c ->
      if c.interval < infinity then c.m.next_gen <- Prng.float prng c.interval)
    chains;
  let horizon = warmup +. duration in
  (* Sources inject a whole slice's arrivals before anyone breathes, so
     a slice must never carry more packets than a ring can hold or
     ingress drops become an artifact of the slice width rather than of
     queueing. Clamp the slice to half a ring at the fastest chain's
     packet rate. *)
  let slice =
    Array.fold_left
      (fun s c ->
        if c.interval < infinity then
          Float.min s (0.5 *. float_of_int ring_capacity *. c.interval)
        else s)
      max_slice chains
  in
  (* The hot path below only bumps ints and writes float arrays and
     all-float records; telemetry receives the tallies after the run. *)
  let time = pool.Packet.time in
  let deliver c p =
    c.delivered_pkts <- c.delivered_pkts + 1;
    let t = time.(p) and t_ingress = pool.Packet.t_ingress.(p) in
    if t > warmup && t_ingress > warmup then begin
      c.m.delivered_bits <- c.m.delivered_bits +. pool.Packet.bits.(p);
      if c.n_lats = Array.length c.lats then
        c.lats <- Array.append c.lats (Array.make (max 16 c.n_lats) 0.0);
      c.lats.(c.n_lats) <- t -. t_ingress;
      c.n_lats <- c.n_lats + 1
    end;
    Packet.free pool p
  in
  let drop_at c e p =
    e.ring_drops <- e.ring_drops + 1;
    c.dropped <- c.dropped + 1;
    Packet.free pool p
  in
  (* Route a packet into a hop: flow-consistent replica choice (HashLB),
     tail-drop when the replica's ring is full. Most hops have one
     replica, and they skip the division. *)
  let enqueue c p hop =
    let n = Array.length hop in
    let e = if n = 1 then hop.(0) else hop.(pool.Packet.flow.(p) mod n) in
    let t = time.(p) +. e.lead in
    time.(p) <- t;
    if Ring.push e.ring p then begin
      if Ring.length e.ring = 1 then begin
        (* the ring turned live: list its slot in order *)
        let w = e.owner in
        let live = w.w_live in
        let j = ref w.w_nlive in
        while !j > 0 && live.(!j - 1) > e.slot do
          live.(!j) <- live.(!j - 1);
          decr j
        done;
        live.(!j) <- e.slot;
        w.w_nlive <- w.w_nlive + 1;
        w.w_heads.(e.slot) <- t;
        if t < w.w_clock.floor then w.w_clock.floor <- t
      end
    end
    else drop_at c e p
  in
  let advance c p =
    let hops = c.hops.(pool.Packet.route.(p)) in
    let step = pool.Packet.step.(p) + 1 in
    pool.Packet.step.(p) <- step;
    if step >= Array.length hops then deliver c p else enqueue c p hops.(step)
  in
  (* Generate the packets due before [slice_end] for one chain. *)
  let inject c slice_end =
    if c.interval < infinity then
      while c.m.next_gen < slice_end && c.m.next_gen < horizon do
        let now = c.m.next_gen in
        if c.t_max < infinity then begin
          let cap = bucket_quantum *. 8.0 in
          let filled = c.m.tokens +. ((now -. c.m.last_refill) /. 1e9 *. c.t_max) in
          c.m.tokens <- (if filled > cap then cap else filled);
          c.m.last_refill <- now
        end;
        if c.t_max = infinity || c.m.tokens >= pkt_bits then begin
          if c.t_max < infinity then c.m.tokens <- c.m.tokens -. pkt_bits;
          let route = Route.pick c.fractions (Prng.float prng 1.0) in
          c.route_injected.(route) <- c.route_injected.(route) + 1;
          let flow = Prng.int prng Nf_cost.flows in
          c.injected <- c.injected + 1;
          if Packet.available pool = 0 then begin
            (* ingress drop for want of a buffer: the offered packet
               still counts so conservation holds *)
            incr pool_exhausted;
            c.dropped <- c.dropped + 1
          end
          else begin
            let p = Packet.take pool in
            pool.Packet.chain.(p) <- c.idx;
            pool.Packet.route.(p) <- route;
            pool.Packet.step.(p) <- 0;
            pool.Packet.flow.(p) <- flow;
            pool.Packet.bits.(p) <- pkt_bits;
            pool.Packet.t_ingress.(p) <- now;
            time.(p) <- now;
            let hops = c.hops.(route) in
            if Array.length hops = 0 then begin
              (* all-hardware path: ToR in, ToR out *)
              time.(p) <- now +. tor_latency;
              deliver c p
            end
            else enqueue c p hops.(0)
          end
        end
        else c.shaped <- c.shaped + 1;
        c.m.next_gen <- c.m.next_gen +. c.interval
      done
  in
  (* One breath of one worker: pull up to [batch_pkts] packets whose
     service can start inside the slice, always taking the eligible
     head with the earliest service start across the worker's rings
     ({!pick}) — the same time-ordered resource discipline Sim gets
     from its event queues. Cycling through the rings in turn instead
     would let a late packet in one ring jump the busy clock over
     earlier packets queued in a sibling ring, wasting real capacity as
     idle time. The start time is [max head busy] written as a
     compare, as in [pick]. *)
  let breathe w slice_end =
    let heads = w.w_heads and clock = w.w_clock in
    let served = ref 0 in
    let go = ref (Array.length heads > 0) in
    while !go && !served < batch_pkts do
      let busy = clock.busy in
      let best =
        pick ~serialize:w.w_serialize ~slice_end clock w.w_live w.w_nlive heads
          heads_read
      in
      if best < 0 then go := false
      else begin
        let head = heads.(best) in
        let start = if w.w_serialize && busy > head then busy else head in
        let e = w.w_elems.(best) in
        let p = Ring.take e.ring in
        let next = Ring.top e.ring in
        if next = Ring.none then begin
          (* the ring drained: drop its slot from the live list *)
          heads.(best) <- infinity;
          let live = w.w_live in
          let j = ref 0 in
          while live.(!j) <> best do
            incr j
          done;
          for k = !j to w.w_nlive - 2 do
            live.(k) <- live.(k + 1)
          done;
          w.w_nlive <- w.w_nlive - 1
        end
        else begin
          let h = time.(next) in
          heads.(best) <- h;
          if h < clock.floor then clock.floor <- h
        end;
        let fin = start +. service prng pool e p in
        if w.w_serialize then clock.busy <- fin;
        time.(p) <- fin +. e.wire;
        e.pulled <- e.pulled + 1;
        incr total_served;
        incr served;
        advance chains.(pool.Packet.chain.(p)) p
      end
    done;
    !served > 0
  in
  let t0_wall = Timing.now () in
  let breaths = ref 0 in
  let t = ref 0.0 in
  (let stop = ref false in
   while (not !stop) && !t < horizon +. drain_slack do
     let slice_end = !t +. slice in
     for i = 0 to Array.length chains - 1 do
       inject chains.(i) slice_end
     done;
     let progress = ref true in
     while !progress do
       progress := false;
       for i = 0 to Array.length workers - 1 do
         if breathe workers.(i) slice_end then progress := true
       done
     done;
     incr breaths;
     t := slice_end;
     if !t >= horizon && Packet.in_flight pool = 0 then stop := true
   done);
  let wall_s = Timing.now () -. t0_wall in
  (* Whatever is still queued is in flight; cross-check the pool. *)
  List.iter
    (fun e ->
      Ring.iter
        (fun p ->
          let c = chains.(pool.Packet.chain.(p)) in
          c.in_flight <- c.in_flight + 1)
        e.ring)
    !elements_rev;
  (* Hand the run's tallies to telemetry: the same totals per-packet
     increments would have left. *)
  let module Counter = Lemur_telemetry.Counter in
  List.iter
    (fun e ->
      Counter.incr ~by:e.pulled e.tm_pulled;
      Array.iter (Counter.incr ~by:e.pulled) e.tm_nfs;
      Counter.incr ~by:e.ring_drops e.tm_ring_drops)
    !elements_rev;
  Array.iter
    (fun c ->
      Route.credit_switch_nfs c.layout c.route_injected;
      Counter.incr ~by:c.injected c.tm_injected;
      Counter.incr ~by:c.delivered_pkts c.tm_delivered;
      Counter.incr ~by:c.dropped c.tm_dropped;
      Counter.incr ~by:c.shaped c.tm_shaped;
      (* arrival order: [Stats.tail_summary] below reorders the buffer;
         a disabled sink's histograms are never read *)
      if Lemur_telemetry.Telemetry.enabled tm then
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
             injected_pkts = c.injected;
             delivered_pkts = c.delivered_pkts;
             dropped_pkts = c.dropped;
             shaped_pkts = c.shaped;
             in_flight_pkts = c.in_flight;
           })
         chains)
  in
  let element_stats =
    List.rev_map
      (fun e ->
        {
          el_name = e.name;
          el_pulled = e.pulled;
          el_pushed = Ring.pushed e.ring;
          el_dropped = e.ring_drops;
          el_queued = Ring.length e.ring;
        })
      !elements_rev
  in
  Counter.incr ~by:!breaths
    (Lemur_telemetry.Telemetry.counter tm "dataplane.engine.breaths");
  Counter.incr ~by:!total_served
    (Lemur_telemetry.Telemetry.counter tm "dataplane.engine.served");
  Counter.incr ~by:!heads_read
    (Lemur_telemetry.Telemetry.counter tm "dataplane.engine.heads_read");
  Counter.incr ~by:!pool_exhausted
    (Lemur_telemetry.Telemetry.counter tm "dataplane.engine.pool_exhausted");
  {
    chains = chain_results;
    elements = element_stats;
    aggregate_throughput = Listx.sum_by (fun r -> r.delivered) chain_results;
    duration;
    breaths = !breaths;
    total_served = !total_served;
    pool_exhausted = !pool_exhausted;
    wall_s;
    hops_per_sec =
      (if wall_s > 0.0 then float_of_int !total_served /. wall_s else 0.0);
  }

let conserved r =
  List.for_all
    (fun c ->
      c.injected_pkts = c.delivered_pkts + c.dropped_pkts + c.in_flight_pkts)
    r.chains

let pp_result ppf r =
  Format.fprintf ppf "aggregate measured: %a (%d breaths, %d packet-hops)@."
    Units.pp_rate r.aggregate_throughput r.breaths r.total_served;
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-8s offered %a delivered %a latency %.1f us (p99 %.1f, max %.1f) \
         pkts %d/%d drop %d shaped %d in-flight %d@."
        c.chain_id Units.pp_rate c.offered Units.pp_rate c.delivered
        (Units.to_us c.mean_latency) (Units.to_us c.p99_latency)
        (Units.to_us c.max_latency) c.delivered_pkts c.injected_pkts
        c.dropped_pkts c.shaped_pkts c.in_flight_pkts)
    r.chains;
  Format.fprintf ppf "  conservation %s; pool exhaustion %d@."
    (if conserved r then "ok" else "VIOLATED")
    r.pool_exhausted
