(** Batched packet-at-a-time execution of a placement — the snabb-style
    ground truth underneath {!Sim}'s batch-rate model.

    Where {!Sim} moves whole 32-packet batches through event queues,
    the engine executes {e individual packets} through an explicit
    element graph: preallocated {!Packet} buffers drawn from a
    freelist, fixed-capacity {!Ring} buffers between elements, and
    per-core run loops that pull fixed-size batches off their input
    rings each breath. Physical resources — the per-server links, the
    demux core, every run-to-completion subgroup replica core, the
    OpenFlow switch link — are {e workers} with their own virtual
    clock; a saturated worker stops pulling, its rings fill, and
    producers tail-drop, so bounded queueing and loss emerge from the
    structure instead of being modeled as closed-form rates.

    The breathing loop advances virtual time in fixed slices: sources
    inject the packets due within the slice, then every worker breathes
    (pull a batch, serve, push onward), in worker order, until the
    slice quiesces. Within a breath a worker always serves the ring
    head that can start earliest ({!pick}). Service order is
    deterministic, so equal seeds give bit-identical results.

    Every element counts packets pulled and packets dropped at its
    ring, and every chain counts injected / delivered / dropped /
    shaped packets — the conservation identity

    [injected = delivered + dropped + in_flight]

    holds per chain and in aggregate (shaped packets were never
    created), and the packet pool's own accounting cross-checks it.
    Counters feed {!Lemur_telemetry} under [dataplane.engine.*]; the
    breathing loop keeps plain [int] tallies and a latency buffer and
    hands them over once the run ends, so its packet path allocates
    little beyond the boxed floats its [Prng] calls return. *)

type chain_result = {
  chain_id : string;
  offered : float;  (** bit/s offered by the generator *)
  delivered : float;  (** bit/s measured at egress over the window *)
  mean_latency : float;  (** ns, ingress to egress *)
  p50_latency : float;
  p99_latency : float;
  max_latency : float;
  injected_pkts : int;  (** packets drawn from the pool at ingress *)
  delivered_pkts : int;  (** packets that reached the sink (any time) *)
  dropped_pkts : int;  (** packets lost to a full ring or pool exhaustion *)
  shaped_pkts : int;  (** generator slots withheld by the t_max token
                          bucket — never allocated, so outside the
                          conservation identity *)
  in_flight_pkts : int;  (** packets still queued when the run stopped *)
}

type element_stat = {
  el_name : string;  (** [resource:chain.r<route>.<role>] *)
  el_pulled : int;  (** packets the owning worker served from this ring *)
  el_pushed : int;  (** packets accepted into this ring *)
  el_dropped : int;  (** push attempts refused because the ring was full *)
  el_queued : int;  (** still in the ring when the run stopped *)
}

type result = {
  chains : chain_result list;
  elements : element_stat list;
  aggregate_throughput : float;  (** bit/s, sum of delivered *)
  duration : float;  (** measured window, ns *)
  breaths : int;  (** virtual-time slices executed *)
  total_served : int;  (** packet-hop services across all elements *)
  pool_exhausted : int;  (** allocation failures at ingress *)
  wall_s : float;  (** host wall-clock of the run loop, seconds *)
  hops_per_sec : float;  (** total_served / wall_s — the bench metric *)
}

val run :
  ?seed:int ->
  ?duration:float ->
  ?overdrive:float ->
  ?offered:(string * float) list ->
  config:Lemur_placer.Plan.config ->
  placement:Lemur_placer.Strategy.placement ->
  unit ->
  result
(** Defaults: seed 7, duration 10 ms, overdrive 1.08. Every run first
    warms up for 1 ms, which [duration] does not include, and uses
    32-packet run-loop batches, 512-packet rings, a 16384-packet pool
    and breathing slices of at most 50 us. [overdrive] and [offered]
    carry {!Sim.run}
    semantics: each chain is driven at [overdrive x] its LP-allocated
    rate (capped at [t_max] and the ToR port rate) unless [offered]
    pins an explicit rate. Offered rates and route choices use the same
    generator law as {!Sim}, so the two executors measure the same
    workload — the convergence check in [lemur_check] relies on it. *)

type clock = { mutable busy : float; mutable floor : float }
(** A worker's virtual clock: [busy] is when its current service ends
    (serializing workers only); [floor] is at most the head of every
    non-empty ring of the worker, [infinity] while all are empty. *)

val pick :
  serialize:bool ->
  slice_end:float ->
  clock ->
  int array ->
  int ->
  float array ->
  int ref ->
  int
(** [pick ~serialize ~slice_end clock live nlive heads reads] is the
    breathing loop's earliest-service-first choice among one worker's
    rings, whose head timestamps are [heads] ([infinity] for an empty
    ring) and whose non-empty slots are [live.(0 .. nlive-1)] in
    ascending order. It returns the slot whose head can start service
    earliest, at [max head clock.busy] on a serializing worker and at
    [head] otherwise, among starts before [slice_end], the lowest slot
    on ties; or -1 when none can start. The answer is that of a scan
    over every slot. The scan reads only live heads and stops at the
    first one that starts at the least possible time ([clock.busy] or
    [clock.floor]). A scan that reads every live head sets
    [clock.floor] to the least head other than the chosen slot's, so
    the caller must lower it to the chosen ring's next head. The heads
    read are added to [reads] ([dataplane.engine.heads_read]). *)

val conserved : result -> bool
(** The conservation identity, per chain and in aggregate. *)

val pp_result : Format.formatter -> result -> unit
