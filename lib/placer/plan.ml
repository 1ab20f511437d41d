open Lemur_spec
open Lemur_nf

type location = Switch | Server | Smartnic | Ofswitch

type chain_input = { id : string; graph : Graph.t; slo : Lemur_slo.Slo.t }

type config = {
  topology : Lemur_topology.Topology.t;
  profiler : Lemur_profiler.Profiler.t;
  pkt_bytes : int;
  eval_capabilities : bool;
  numa : Datasheet.numa;
  metron_steering : bool;
  acl_algo : Lemur_classifier.Classifier.algo option;
}

let default_config topology =
  {
    topology;
    profiler = Lemur_profiler.Profiler.create ();
    pkt_bytes = 1500;
    eval_capabilities = true;
    numa = Datasheet.Diff;
    metron_steering = false;
    acl_algo = None;
  }

(* Every consumer of a software NF's predicted cycle cost goes through
   here, so the classifier-aware ACL path (when [acl_algo] is on) is
   priced identically by the strategies, the MILP, the stage checker,
   the oracle and base-rate computation. *)
let instance_cycles config instance =
  match (instance.Instance.kind, config.acl_algo) with
  | Kind.Acl, Some algo ->
      let size =
        match Instance.state_size instance with
        | Some s -> s
        | None ->
            Option.value (Datasheet.reference_size Kind.Acl) ~default:1024
      in
      Lemur_profiler.Profiler.acl_cycles config.profiler ~algo ~size
        config.numa
  | _ -> Lemur_profiler.Profiler.cycles config.profiler instance config.numa

let allowed_locations config instance =
  let kind = instance.Instance.kind in
  let targets =
    if config.eval_capabilities then Kind.targets_eval kind else Kind.targets kind
  in
  let topo = config.topology in
  List.filter_map
    (fun target ->
      match target with
      | Target.Cpp -> if topo.Lemur_topology.Topology.servers <> [] then Some Server else None
      | Target.P4 ->
          if topo.Lemur_topology.Topology.tor.Lemur_platform.Pisa.stages > 0 then
            Some Switch
          else None
      | Target.Ebpf -> (
          match topo.Lemur_topology.Topology.smartnics with
          | [] -> None
          | nic :: _ ->
              if Lemur_ebpf.Ebpf_nf.loads_on nic kind then Some Smartnic else None)
      | Target.Openflow -> (
          match topo.Lemur_topology.Topology.ofswitch with
          | Some sw when Lemur_platform.Ofswitch.supports sw kind -> Some Ofswitch
          | _ -> None))
    targets

type subgroup = {
  sg_nodes : Graph.node_id list;
  sg_cycles : float;
  sg_replicable : bool;
  sg_fraction : float;
  sg_segment : int;
}

type plan = {
  input : chain_input;
  locs : location array;
  subgroups : subgroup list;
  segments : int;
  segment_fractions : (int * float) list;
  max_path_bounces : int;
  smartnic_nodes : Graph.node_id list;
  ofswitch_nodes : Graph.node_id list;
  link_visits : float;
  of_visits : float;
  latency : float;
}

exception Invalid_pattern of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_pattern s)) fmt

(* Segment structure of one linear path: group consecutive off-switch
   hops. A Server hop adjacent to a Smartnic hop shares a segment (the
   NIC is in-line on the server path); OpenFlow hops form their own
   segments. Returns (server_segments, of_segments). *)
let path_segments locs path_nodes =
  let hop id =
    match locs.(id) with
    | Switch -> `Sw
    | Server | Smartnic -> `Srv
    | Ofswitch -> `Of
  in
  let groups =
    Lemur_util.Listx.group_consecutive (fun a b -> hop a = hop b) path_nodes
  in
  let server_segments =
    List.length (List.filter (fun g -> hop (List.hd g) = `Srv) groups)
  in
  let of_segments =
    List.length (List.filter (fun g -> hop (List.hd g) = `Of) groups)
  in
  (server_segments, of_segments)

(* ToR bounces of the worst path: its server plus OpenFlow segments. *)
let max_path_bounces locs paths =
  List.fold_left
    (fun acc p ->
      let srv, ofl = path_segments locs p.Graph.path_nodes in
      max acc (srv + ofl))
    0 paths

(* OpenFlow fixed-table-order feasibility: on every path, the NFs
   placed on the OpenFlow switch must respect its table order. *)
let of_order_compatible config graph locs paths =
  match config.topology.Lemur_topology.Topology.ofswitch with
  | None -> true
  | Some sw ->
      List.for_all
        (fun p ->
          let of_kinds =
            List.filter_map
              (fun id ->
                if locs.(id) = Ofswitch then
                  Some (Graph.node graph id).Graph.instance.Instance.kind
                else None)
              p.Graph.path_nodes
          in
          of_kinds = []
          || Lemur_platform.Ofswitch.order_compatible sw of_kinds)
        paths

let node_cycles config graph id =
  instance_cycles config (Graph.node graph id).Graph.instance

(* Maximal run-to-completion subgroups: consecutive Server NFs joined
   when the edge between them is the only one out of the first and into
   the second (no branch/merge boundary inside a subgroup's spine). *)
let form_subgroups config input locs =
  let graph = input.graph in
  let sg_of_node = Hashtbl.create 16 in
  let sg_members = Hashtbl.create 16 in
  let fresh = ref 0 in
  let new_sg id =
    let sg = !fresh in
    incr fresh;
    Hashtbl.replace sg_of_node id sg;
    Hashtbl.replace sg_members sg [ id ];
    sg
  in
  List.iter
    (fun node ->
      let id = node.Graph.id in
      if locs.(id) = Server then begin
        let preds = Graph.predecessors graph id in
        match preds with
        | [ e ]
          when locs.(e.Graph.src) = Server
               && List.length (Graph.successors graph e.Graph.src) = 1
               && Hashtbl.mem sg_of_node e.Graph.src ->
            let sg = Hashtbl.find sg_of_node e.Graph.src in
            Hashtbl.replace sg_of_node id sg;
            Hashtbl.replace sg_members sg (Hashtbl.find sg_members sg @ [ id ])
        | _ -> ignore (new_sg id)
      end)
    (Graph.nodes graph);
  let paths = Graph.linearize graph in
  let fraction_of_node id =
    Lemur_util.Listx.sum_by
      (fun p -> if List.mem id p.Graph.path_nodes then p.Graph.fraction else 0.0)
      paths
  in
  let sgs =
    Hashtbl.fold (fun sg members acc -> (sg, members) :: acc) sg_members []
    |> List.sort (fun (_, a) (_, b) -> compare (List.hd a) (List.hd b))
    |> List.map snd
  in
  (* Segment grouping: two subgroups joined by a direct server->server
     edge belong to one server segment (packets hand off through the
     local demux, never leaving the machine), so they must share a
     server. Union-find over subgroup indices. *)
  let n_sg = List.length sgs in
  let parent = Array.init n_sg (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(max ri rj) <- min ri rj
  in
  let sg_index_of_node = Hashtbl.create 16 in
  List.iteri
    (fun i members -> List.iter (fun id -> Hashtbl.replace sg_index_of_node id i) members)
    sgs;
  List.iter
    (fun e ->
      let open Graph in
      if locs.(e.src) = Server && locs.(e.dst) = Server then
        match
          ( Hashtbl.find_opt sg_index_of_node e.src,
            Hashtbl.find_opt sg_index_of_node e.dst )
        with
        | Some i, Some j when i <> j -> union i j
        | _ -> ())
    (Graph.edges graph);
  (* Renumber segment roots densely. *)
  let seg_id = Hashtbl.create 8 in
  let next_seg = ref 0 in
  let segment_of i =
    let root = find i in
    match Hashtbl.find_opt seg_id root with
    | Some s -> s
    | None ->
        let s = !next_seg in
        incr next_seg;
        Hashtbl.replace seg_id root s;
        s
  in
  List.mapi
    (fun i members ->
      let cycles =
        Lemur_util.Listx.sum_by (node_cycles config input.graph) members
      in
      let replicable =
        List.for_all
          (fun id ->
            let node = Graph.node graph id in
            Kind.replicable node.Graph.instance.Instance.kind
            && (not (Graph.is_branch graph id))
            && not (Graph.is_merge graph id))
          members
      in
      {
        sg_nodes = members;
        sg_cycles = cycles;
        sg_replicable = replicable;
        sg_fraction = fraction_of_node (List.hd members);
        sg_segment = segment_of i;
      })
    sgs

let server_clock config =
  match config.topology.Lemur_topology.Topology.servers with
  | s :: _ -> s.Lemur_platform.Server.clock_hz
  | [] -> Lemur_util.Units.ghz 1.7

(* Worst entry-to-exit path latency: NF execution + per-bounce cost +
   ToR traversals, over the paths and their (server, OpenFlow) segment
   counts as [elaborate] derived them. *)
let worst_path_latency config graph locs paths seg_stats =
  let topo = config.topology in
  let clock = server_clock config in
  let node_delay id =
    match locs.(id) with
    | Switch -> 0.0 (* accounted via ToR traversal latency *)
    | Server ->
        node_cycles config graph id /. clock *. 1e9
    | Smartnic ->
        let kind = (Graph.node graph id).Graph.instance.Instance.kind in
        node_cycles config graph id
        /. (clock *. Datasheet.ebpf_speedup kind)
        *. 1e9
    | Ofswitch -> 0.0 (* accounted per OF segment *)
  in
  List.fold_left2
    (fun acc p (srv, ofl) ->
      let exec = Lemur_util.Listx.sum_by node_delay p.Graph.path_nodes in
      let tor_traversals = srv + ofl + 1 in
      let lat =
        exec
        +. (float_of_int (srv + ofl) *. topo.Lemur_topology.Topology.bounce_latency)
        +. (float_of_int tor_traversals
           *. topo.Lemur_topology.Topology.tor.Lemur_platform.Pisa.latency)
        +.
        match topo.Lemur_topology.Topology.ofswitch with
        | Some sw -> float_of_int ofl *. sw.Lemur_platform.Ofswitch.latency
        | None -> 0.0
      in
      Float.max acc lat)
    0.0 paths seg_stats

let elaborate config input locs =
  let graph = input.graph in
  if Array.length locs <> Graph.size graph then
    invalid "pattern length %d does not match chain %s (%d NFs)"
      (Array.length locs) input.id (Graph.size graph);
  List.iter
    (fun node ->
      let allowed = allowed_locations config node.Graph.instance in
      let loc = locs.(node.Graph.id) in
      if not (List.mem loc allowed) then
        invalid "%s (%s) cannot run on the chosen platform in chain %s"
          node.Graph.instance.Instance.name
          (Kind.name node.Graph.instance.Instance.kind)
          input.id)
    (Graph.nodes graph);
  let paths = Graph.linearize graph in
  if not (of_order_compatible config graph locs paths) then
    invalid "chain %s violates the OpenFlow table order" input.id;
  let subgroups = form_subgroups config input locs in
  let seg_stats = List.map (fun p -> path_segments locs p.Graph.path_nodes) paths in
  let segment_ids =
    Lemur_util.Listx.uniq ( = ) (List.map (fun sg -> sg.sg_segment) subgroups)
  in
  let segment_fractions =
    List.map
      (fun seg ->
        let members =
          List.concat_map
            (fun sg -> if sg.sg_segment = seg then sg.sg_nodes else [])
            subgroups
        in
        let frac =
          Lemur_util.Listx.sum_by
            (fun p ->
              if List.exists (fun id -> List.mem id p.Graph.path_nodes) members
              then p.Graph.fraction
              else 0.0)
            paths
        in
        (seg, frac))
      segment_ids
  in
  (* Path-based: counts SmartNIC visits too (the NIC sits on the server
     link; a NIC hop adjacent to a server segment shares its visit). *)
  let link_visits =
    List.fold_left2
      (fun acc p (srv, _) -> acc +. (p.Graph.fraction *. float_of_int srv))
      0.0 paths seg_stats
  in
  let of_visits =
    List.fold_left2
      (fun acc p (_, ofl) -> acc +. (p.Graph.fraction *. float_of_int ofl))
      0.0 paths seg_stats
  in
  let max_path_bounces = max_path_bounces locs paths in
  let segments = List.length segment_ids in
  let select loc =
    List.filter_map
      (fun n -> if locs.(n.Graph.id) = loc then Some n.Graph.id else None)
      (Graph.nodes graph)
  in
  {
    input;
    locs;
    subgroups;
    segments;
    segment_fractions;
    max_path_bounces;
    smartnic_nodes = select Smartnic;
    ofswitch_nodes = select Ofswitch;
    link_visits;
    of_visits;
    latency = worst_path_latency config graph locs paths seg_stats;
  }

let capacity config plan ~cores =
  if List.length cores <> List.length plan.subgroups then
    invalid_arg "Plan.capacity: cores list mismatch";
  let clock = server_clock config in
  let sg_cap =
    List.fold_left2
      (fun acc sg k ->
        if sg.sg_fraction <= 0.0 then acc
        else
          let rate =
            Lemur_bess.Cost.subgroup_rate ~core_tagging:config.metron_steering
              ~clock_hz:clock ~cores:k ~pkt_bytes:config.pkt_bytes
              ~nf_cycles:[ sg.sg_cycles ] ()
          in
          Float.min acc (rate /. sg.sg_fraction))
      infinity plan.subgroups cores
  in
  let nic_cap =
    match config.topology.Lemur_topology.Topology.smartnics with
    | [] -> infinity
    | nic :: _ ->
        let paths = Graph.linearize plan.input.graph in
        List.fold_left
          (fun acc id ->
            let node = Graph.node plan.input.graph id in
            let kind = node.Graph.instance.Instance.kind in
            let cycles = node_cycles config plan.input.graph id in
            let rate =
              Lemur_platform.Smartnic.rate nic ~clock_hz:clock ~kind ~cycles
                ~pkt_bytes:config.pkt_bytes
            in
            let frac =
              Lemur_util.Listx.sum_by
                (fun p ->
                  if List.mem id p.Graph.path_nodes then p.Graph.fraction else 0.0)
                paths
            in
            if frac <= 0.0 then acc else Float.min acc (rate /. frac))
          infinity plan.smartnic_nodes
  in
  Float.min sg_cap nic_cap

let latency plan = plan.latency

let meets_latency plan =
  plan.input.slo.Lemur_slo.Slo.d_max = infinity
  || plan.latency <= plan.input.slo.Lemur_slo.Slo.d_max

let switch_projection plan =
  let graph = plan.input.graph in
  let chain_id = plan.input.id in
  let nf_id id =
    Printf.sprintf "%s_%s" chain_id (Graph.node graph id).Graph.instance.Instance.name
  in
  let nf_nodes =
    List.filter_map
      (fun n ->
        if plan.locs.(n.Graph.id) = Switch then
          Some
            {
              Lemur_p4.Pipeline.nf_id = nf_id n.Graph.id;
              kind = n.Graph.instance.Instance.kind;
            }
        else None)
      (Graph.nodes graph)
  in
  let paths = Graph.linearize graph in
  let edges = ref [] in
  List.iter
    (fun p ->
      let sw_seq =
        List.filter (fun id -> plan.locs.(id) = Switch) p.Graph.path_nodes
      in
      let rec pairs = function
        | a :: (b :: _ as rest) ->
            let e = (nf_id a, nf_id b) in
            if not (List.mem e !edges) then edges := e :: !edges;
            pairs rest
        | _ -> ()
      in
      pairs sw_seq)
    paths;
  let edge_list = List.rev !edges in
  let entry_nfs =
    List.filter_map
      (fun n ->
        let id = n.Lemur_p4.Pipeline.nf_id in
        if List.exists (fun (_, dst) -> String.equal dst id) edge_list then None
        else Some id)
      nf_nodes
  in
  let crosses =
    Array.exists (fun loc -> loc <> Switch) plan.locs
  in
  {
    Lemur_p4.Pipeline.chain_id;
    nf_nodes;
    nf_edges = edge_list;
    entry_nfs;
    crosses_platform = crosses;
  }

let pp_location ppf = function
  | Switch -> Format.pp_print_string ppf "P4"
  | Server -> Format.pp_print_string ppf "server"
  | Smartnic -> Format.pp_print_string ppf "smartNIC"
  | Ofswitch -> Format.pp_print_string ppf "OpenFlow"

let pp ppf plan =
  Format.fprintf ppf "plan for %s:@." plan.input.id;
  List.iter
    (fun n ->
      Format.fprintf ppf "  %-12s -> %a@." n.Graph.instance.Instance.name
        pp_location plan.locs.(n.Graph.id))
    (Graph.nodes plan.input.graph);
  Format.fprintf ppf "  %d subgroups, %d segment(s), link visits %.2f@."
    (List.length plan.subgroups) plan.segments plan.link_visits
