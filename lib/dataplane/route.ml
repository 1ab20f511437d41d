open Lemur_placer
open Lemur_util

type visit =
  | Server_visit of {
      server : string;
      nic_nodes : Lemur_spec.Graph.node_id list;
      subgroups : int list;
    }
  | Of_visit

type t = {
  fraction : float;
  visits : visit list;
  sw_nodes : int list;
}

let routes ~nic_host report =
  let plan = report.Strategy.plan in
  let graph = plan.Plan.input.Plan.graph in
  let sg_index_of_node =
    let tbl = Hashtbl.create 16 in
    List.iteri
      (fun i sg -> List.iter (fun n -> Hashtbl.replace tbl n i) sg.Plan.sg_nodes)
      plan.Plan.subgroups;
    tbl
  in
  let server_of_sg i =
    let sg = List.nth plan.Plan.subgroups i in
    List.assoc sg.Plan.sg_segment report.Strategy.seg_server
  in
  (* Each hop resolves to a physical site: SmartNIC work happens on the
     NIC's host, server work on the segment's assigned server. Adjacent
     hops fuse into one visit only when they share a site — segments of
     the same chain placed on different servers must traverse the ToR
     between them, never borrow each other's cores. *)
  let site id =
    match plan.Plan.locs.(id) with
    | Plan.Switch -> `Sw
    | Plan.Ofswitch -> `Of
    | Plan.Smartnic -> `Host nic_host
    | Plan.Server ->
        `Host
          (match Hashtbl.find_opt sg_index_of_node id with
          | Some i -> server_of_sg i
          | None -> nic_host)
  in
  List.map
    (fun path ->
      let groups =
        Listx.group_consecutive
          (fun a b -> site a = site b)
          path.Lemur_spec.Graph.path_nodes
      in
      let visits =
        List.filter_map
          (fun group ->
            match site (List.hd group) with
            | `Sw -> None
            | `Of -> Some Of_visit
            | `Host server ->
                let nic_nodes =
                  List.filter (fun id -> plan.Plan.locs.(id) = Plan.Smartnic) group
                in
                let subgroups =
                  List.filter_map (Hashtbl.find_opt sg_index_of_node) group
                  |> Listx.uniq ( = )
                in
                Some (Server_visit { server; nic_nodes; subgroups }))
          groups
      in
      let sw_nodes =
        List.filter
          (fun id -> site id = `Sw)
          path.Lemur_spec.Graph.path_nodes
      in
      { fraction = path.Lemur_spec.Graph.fraction; visits; sw_nodes })
    (Lemur_spec.Graph.linearize graph)

let pick fractions r =
  let n = Array.length fractions in
  let chosen = ref (n - 1) and acc = ref 0.0 and i = ref 0 in
  while !i < n - 1 do
    if r < !acc +. fractions.(!i) then begin
      chosen := !i;
      i := n
    end
    else begin
      acc := !acc +. fractions.(!i);
      incr i
    end
  done;
  !chosen

let wire_delay = 350.0
let demux_cycles_per_pkt = 150.0

type subgroup = {
  sg_nodes : int array;
  replicas : Lemur_codegen.Bessgen.core array;
  lb : float;
}

type chain = {
  report : Strategy.chain_report;
  offered : float;
  routes : t array;
  fractions : float array;
  subgroups : subgroup array;
  nf_counters : Lemur_telemetry.Counter.t array;
}

let offered_rate ~offered ~overdrive ~port_cap report =
  let slo = report.Strategy.plan.Plan.input.Plan.slo in
  match List.assoc_opt report.Strategy.plan.Plan.input.Plan.id offered with
  | Some r -> Float.min (Float.min (Float.max r 0.0) slo.Lemur_slo.Slo.t_max) port_cap
  | None ->
      Float.min
        (Float.min (report.Strategy.rate *. overdrive) slo.Lemur_slo.Slo.t_max)
        port_cap

let layout ~offered ~overdrive config placement =
  let tm = Lemur_telemetry.Telemetry.current () in
  let topo = config.Plan.topology in
  let port_cap = topo.Lemur_topology.Topology.tor.Lemur_platform.Pisa.port_capacity in
  let nic_host =
    match topo.Lemur_topology.Topology.smartnics with
    | nic :: _ -> nic.Lemur_platform.Smartnic.host
    | [] -> "server0"
  in
  let reports = placement.Strategy.chain_reports in
  List.map2
    (fun report sg_cores ->
      let chain_id = report.Strategy.plan.Plan.input.Plan.id in
      let graph = report.Strategy.plan.Plan.input.Plan.graph in
      let routes = Array.of_list (routes ~nic_host report) in
      let nf_counters =
        Array.init (Lemur_spec.Graph.size graph) (fun _ ->
            Lemur_telemetry.Counter.make "unplaced")
      in
      List.iter
        (fun node ->
          nf_counters.(node.Lemur_spec.Graph.id) <-
            Lemur_telemetry.Telemetry.counter tm
              (Printf.sprintf "dataplane.nf.%s.%d.%s.pkts" chain_id
                 node.Lemur_spec.Graph.id
                 node.Lemur_spec.Graph.instance.Lemur_nf.Instance.name))
        (Lemur_spec.Graph.nodes graph);
      {
        report;
        offered = offered_rate ~offered ~overdrive ~port_cap report;
        routes;
        fractions = Array.map (fun r -> r.fraction) routes;
        subgroups =
          Array.of_list
            (List.mapi
               (fun i sg ->
                 let replicas = sg_cores.(i) in
                 {
                   sg_nodes = Array.of_list sg.Plan.sg_nodes;
                   replicas;
                   (* with Metron tagging the ToR picks the replica *)
                   lb =
                     (if Array.length replicas > 1 && not config.Plan.metron_steering
                      then Lemur_bess.Cost.multicore_lb_cycles
                      else 0.0);
                 })
               report.Strategy.plan.Plan.subgroups);
        nf_counters;
      })
    reports
    (Lemur_codegen.Bessgen.replica_cores config reports)

let credit_switch_nfs chain per_route =
  Array.iteri
    (fun r route ->
      List.iter
        (fun id -> Lemur_telemetry.Counter.incr ~by:per_route.(r) chain.nf_counters.(id))
        route.sw_nodes)
    chain.routes
