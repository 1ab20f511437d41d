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

let build ?nic_host report =
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
  let nic_host = Option.value nic_host ~default:"server0" in
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

type core = { server : string; core : int; socket : int }

let cores topo placement =
  let next_core = Hashtbl.create 4 in
  List.map
    (fun report ->
      Array.of_list
        (List.mapi
           (fun sg_index sg ->
             let server = List.assoc sg.Plan.sg_segment report.Strategy.seg_server in
             let s_decl = Lemur_topology.Topology.find_server topo server in
             Array.init report.Strategy.cores.(sg_index) (fun _ ->
                 let core = Option.value (Hashtbl.find_opt next_core server) ~default:1 in
                 Hashtbl.replace next_core server (core + 1);
                 let socket = core / s_decl.Lemur_platform.Server.cores_per_socket in
                 { server; core; socket }))
           report.Strategy.plan.Plan.subgroups))
    placement.Strategy.chain_reports

let offered_rate ~offered ~overdrive ~port_cap report =
  let slo = report.Strategy.plan.Plan.input.Plan.slo in
  match List.assoc_opt report.Strategy.plan.Plan.input.Plan.id offered with
  | Some r -> Float.min (Float.min (Float.max r 0.0) slo.Lemur_slo.Slo.t_max) port_cap
  | None ->
      Float.min
        (Float.min (report.Strategy.rate *. overdrive) slo.Lemur_slo.Slo.t_max)
        port_cap
