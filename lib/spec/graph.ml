type node_id = int

type node = { id : node_id; instance : Lemur_nf.Instance.t }

type edge = {
  src : node_id;
  dst : node_id;
  conds : (string * Lemur_nf.Params.value) list;
  weight : float;
}

(* A dangling tail: an edge waiting for its destination node. Tails
   remaining when the pipeline ends describe how traffic exits the
   chain (a plain final NF, or pass-through branch arms). *)
type tail = {
  tail_src : node_id;
  tail_conds : (string * Lemur_nf.Params.value) list;
  tail_weight : float;
}

type t = {
  name : string;
  mutable node_list : node list; (* reversed *)
  mutable edge_list : edge list; (* reversed *)
  mutable entry_id : node_id;
  mutable exit_tails : tail list;
  used_names : (string, int) Hashtbl.t;
}

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let name t = t.name
let nodes t = List.rev t.node_list
let edges t = List.rev t.edge_list
let entry t = t.entry_id

let exits t =
  Lemur_util.Listx.uniq ( = ) (List.map (fun tl -> tl.tail_src) t.exit_tails)

let size t = List.length t.node_list

let node t id =
  match List.find_opt (fun n -> n.id = id) t.node_list with
  | Some n -> n
  | None -> invalid "unknown node id %d in chain %s" id t.name

let successors t id = List.filter (fun e -> e.src = id) (edges t)
let predecessors t id = List.filter (fun e -> e.dst = id) (edges t)
let is_branch t id = List.length (successors t id) > 1
let is_merge t id = List.length (predecessors t id) > 1

let fresh_name t base =
  match Hashtbl.find_opt t.used_names base with
  | None ->
      Hashtbl.replace t.used_names base 1;
      base
  | Some n ->
      Hashtbl.replace t.used_names base (n + 1);
      Printf.sprintf "%s_%d" base n

let add_node t instance =
  let id = size t in
  let instance =
    { instance with Lemur_nf.Instance.name = fresh_name t instance.Lemur_nf.Instance.name }
  in
  (* Surface bad size parameters at graph-build time, as a spec error
     rather than a crash deep inside a cost model or table builder. *)
  (match Lemur_nf.Instance.state_size instance with
  | exception Lemur_nf.Params.Invalid_size { key; value } ->
      invalid "%s: parameter %s=%d must be non-negative"
        instance.Lemur_nf.Instance.name key value
  | _ -> ());
  t.node_list <- { id; instance } :: t.node_list;
  id

let add_edge t ~src ~dst ~conds ~weight =
  t.edge_list <- { src; dst; conds; weight } :: t.edge_list

let resolve_atom decls { Ast.ref_name; args } =
  match List.assoc_opt ref_name decls with
  | Some instance ->
      if args <> None then
        invalid "instance %s cannot take arguments at use site" ref_name;
      instance
  | None -> (
      match Lemur_nf.Kind.of_name ref_name with
      | Some kind ->
          Lemur_nf.Instance.make ~name:ref_name
            ?params:(Option.map Fun.id args) kind
      | None -> invalid "unknown NF or instance name %S" ref_name)

let arm_fractions arms =
  let given = List.filter_map (fun a -> a.Ast.weight) arms in
  let total_given = List.fold_left ( +. ) 0.0 given in
  if total_given > 1.0 +. 1e-9 then
    invalid "branch arm weights sum to %g > 1" total_given;
  let unweighted = List.length arms - List.length given in
  if unweighted = 0 && Float.abs (total_given -. 1.0) > 1e-6 then
    invalid "branch arm weights sum to %g, expected 1" total_given;
  let share =
    if unweighted = 0 then 0.0 else (1.0 -. total_given) /. float_of_int unweighted
  in
  List.map
    (fun a -> match a.Ast.weight with Some w -> w | None -> share)
    arms

let rec build t decls tails elements =
  match elements with
  | [] -> tails
  | Ast.Atom atom :: rest ->
      let id = add_node t (resolve_atom decls atom) in
      List.iter
        (fun { tail_src; tail_conds; tail_weight } ->
          add_edge t ~src:tail_src ~dst:id ~conds:tail_conds ~weight:tail_weight)
        tails;
      build t decls [ { tail_src = id; tail_conds = []; tail_weight = 1.0 } ] rest
  | Ast.Branch arms :: rest ->
      if tails = [] then invalid "chain %s cannot start with a branch" t.name;
      let fractions = arm_fractions arms in
      let arm_tails =
        List.concat
          (List.map2
             (fun arm fraction ->
               let scaled =
                 List.map
                   (fun tail ->
                     {
                       tail with
                       tail_conds = tail.tail_conds @ arm.Ast.conds;
                       tail_weight = tail.tail_weight *. fraction;
                     })
                   tails
               in
               if arm.Ast.body = [] then scaled
               else build t decls scaled arm.Ast.body)
             arms fractions)
      in
      build t decls arm_tails rest

let of_pipeline ?(name = "chain") ?(decls = []) pipeline =
  if pipeline = [] then invalid "empty pipeline";
  let t =
    {
      name;
      node_list = [];
      edge_list = [];
      entry_id = 0;
      exit_tails = [];
      used_names = Hashtbl.create 16;
    }
  in
  let tails = build t decls [] pipeline in
  if tails = [] then invalid "pipeline of chain %s produced no nodes" name;
  t.entry_id <- 0;
  t.exit_tails <- tails;
  t

type path = { path_nodes : node_id list; fraction : float }

let linearize t =
  let rec walk id fraction acc =
    let terminal =
      List.filter_map
        (fun tl ->
          if tl.tail_src = id then
            Some
              {
                path_nodes = List.rev (id :: acc);
                fraction = fraction *. tl.tail_weight;
              }
          else None)
        t.exit_tails
    in
    terminal
    @ List.concat_map
        (fun e -> walk e.dst (fraction *. e.weight) (id :: acc))
        (successors t id)
  in
  walk (entry t) 1.0 []

let pp ppf t =
  Format.fprintf ppf "chain %s: %d NFs@." t.name (size t);
  List.iter
    (fun e ->
      let src = node t e.src and dst = node t e.dst in
      Format.fprintf ppf "  %s -> %s (w=%.3f)@."
        src.instance.Lemur_nf.Instance.name dst.instance.Lemur_nf.Instance.name
        e.weight)
    (edges t)
