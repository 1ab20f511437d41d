type nf_node = {
  nf_id : string;
  kind : Lemur_nf.Kind.t;
}

type chain_projection = {
  chain_id : string;
  nf_nodes : nf_node list;
  nf_edges : (string * string) list;
  entry_nfs : string list;
  crosses_platform : bool;
}

type mode = Optimized | Naive

exception Parser_conflict of string

let infra_table name action =
  {
    Tablegraph.table_name = name;
    owner = "infra";
    match_fields = [ "nsh.spi"; "nsh.si" ];
    action;
  }

let table_graph ~mode projections =
  let g = Tablegraph.create () in
  let dep before after = Tablegraph.add_dep g ~before ~after in
  (* Shared first-stage steering: classifies fresh packets into chains
     and (Optimized, optimization (c)) also re-steers packets returning
     from servers. *)
  Tablegraph.add_table g (infra_table "ingress_steering" "steer_to_chain");
  let any_crosses = List.exists (fun p -> p.crosses_platform) projections in
  let root =
    match mode with
    | Optimized -> "ingress_steering"
    | Naive ->
        (* Naive codegen keeps NSH initialization and return steering as
           separate sequential tables. *)
        Tablegraph.add_table g (infra_table "nsh_init" "set_initial_spi_si");
        dep "ingress_steering" "nsh_init";
        Tablegraph.add_table g (infra_table "return_steering" "steer_returning");
        dep "nsh_init" "return_steering";
        "return_steering"
  in
  (* Global NSH decap/encap: two tables, hence the "two burned stages"
     of §5.3. Skipped entirely when no chain leaves the switch
     (optimization (a)). *)
  let after_root =
    if any_crosses then begin
      Tablegraph.add_table g (infra_table "nsh_decap" "decap_nsh");
      dep root "nsh_decap";
      "nsh_decap"
    end
    else root
  in
  let encap_needed = any_crosses in
  if encap_needed then Tablegraph.add_table g (infra_table "nsh_encap" "encap_nsh");
  List.iter
    (fun proj ->
      let first_table = Hashtbl.create 8 in
      let last_table = Hashtbl.create 8 in
      (* Per-NF tables with intra-NF sequential dependencies. *)
      List.iter
        (fun node ->
          let tables = P4nf.tables ~nf_id:node.nf_id node.kind in
          List.iter (Tablegraph.add_table g) tables;
          match List.map (fun t -> t.Tablegraph.table_name) tables with
          | [] -> ()
          | hd :: tl ->
              let last =
                List.fold_left
                  (fun prev name ->
                    dep prev name;
                    name)
                  hd tl
              in
              Hashtbl.replace first_table node.nf_id hd;
              Hashtbl.replace last_table node.nf_id last)
        proj.nf_nodes;
      let out_degree = Hashtbl.create 8 in
      List.iter
        (fun (src, _) ->
          Hashtbl.replace out_degree src
            (1 + Option.value (Hashtbl.find_opt out_degree src) ~default:0))
        proj.nf_edges;
      let out_degree nf_id =
        Option.value (Hashtbl.find_opt out_degree nf_id) ~default:0
      in
      (* Branch split tables (Optimized only): a branching NF feeds a
         traffic-split table; arms depend on the split only, letting the
         compiler pack parallel branches into the same stages
         (optimization (d)). Naive codegen instead re-checks the traffic
         class at the head of every NF, which costs nothing extra in
         tables but — packed one table per stage — wastes stages. *)
      let split_of = Hashtbl.create 4 in
      if mode = Optimized then
        List.iter
          (fun node ->
            if out_degree node.nf_id > 1 then begin
              let split =
                infra_table (node.nf_id ^ "_split") "traffic_split"
              in
              Tablegraph.add_table g split;
              (match Hashtbl.find_opt last_table node.nf_id with
              | Some last -> dep last split.Tablegraph.table_name
              | None -> ());
              Hashtbl.replace split_of node.nf_id split.Tablegraph.table_name
            end)
          proj.nf_nodes;
      let exit_point nf_id =
        match Hashtbl.find_opt split_of nf_id with
        | Some split -> Some split
        | None -> Hashtbl.find_opt last_table nf_id
      in
      (* Projected edges. *)
      List.iter
        (fun (src, dst) ->
          match (exit_point src, Hashtbl.find_opt first_table dst) with
          | Some a, Some b -> dep a b
          | _ -> ())
        proj.nf_edges;
      (* Entry NFs hang off the steering root (and decap when present). *)
      List.iter
        (fun nf_id ->
          match Hashtbl.find_opt first_table nf_id with
          | Some first ->
              dep after_root first
          | None -> ())
        proj.entry_nfs;
      (* Chain terminals feed the global encap table. *)
      if encap_needed then
        List.iter
          (fun node ->
            if out_degree node.nf_id = 0 then
              match exit_point node.nf_id with
              | Some last -> dep last "nsh_encap"
              | None -> ())
          proj.nf_nodes)
    projections;
  g

let unified_parser projections =
  let trees =
    List.concat_map
      (fun proj ->
        List.filter_map
          (fun node ->
            if P4nf.supports node.kind then Some (P4nf.parse_tree node.kind)
            else None)
          proj.nf_nodes)
      projections
  in
  let trees =
    if List.exists (fun p -> p.crosses_platform) projections then
      P4nf.nsh_parse_tree :: trees
    else trees
  in
  match trees with
  | [] -> Parsetree.leaf "ethernet"
  | _ -> (
      try Parsetree.merge_all trees
      with Parsetree.Conflict msg -> raise (Parser_conflict msg))
