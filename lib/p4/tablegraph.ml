type table = {
  table_name : string;
  owner : string;
  match_fields : string list;
  action : string;
}

(* Per-table adjacency, each list newest edge first — the order a filter
   over the reversed dependency list would yield. *)
type node = {
  table : table;
  mutable preds : string list;
  mutable succs : string list;
}

type t = {
  mutable table_list : table list; (* reversed *)
  mutable dep_list : (string * string) list; (* (before, after), reversed *)
  nodes : (string, node) Hashtbl.t;
  dep_set : (string * string, unit) Hashtbl.t;
}

let create () =
  {
    table_list = [];
    dep_list = [];
    nodes = Hashtbl.create 64;
    dep_set = Hashtbl.create 64;
  }

let add_table t table =
  if Hashtbl.mem t.nodes table.table_name then
    invalid_arg
      (Printf.sprintf "Tablegraph.add_table: duplicate table %S" table.table_name);
  Hashtbl.add t.nodes table.table_name { table; preds = []; succs = [] };
  t.table_list <- table :: t.table_list

let add_dep t ~before ~after =
  if String.equal before after then
    invalid_arg "Tablegraph.add_dep: self-dependency";
  let node name =
    match Hashtbl.find_opt t.nodes name with
    | Some n -> n
    | None ->
        invalid_arg (Printf.sprintf "Tablegraph.add_dep: unknown table %S" name)
  in
  let b = node before in
  let a = node after in
  if not (Hashtbl.mem t.dep_set (before, after)) then begin
    Hashtbl.add t.dep_set (before, after) ();
    t.dep_list <- (before, after) :: t.dep_list;
    b.succs <- after :: b.succs;
    a.preds <- before :: a.preds
  end

let tables t = List.rev t.table_list
let deps t = List.rev t.dep_list
let table_count t = Hashtbl.length t.nodes

let predecessors t name =
  match Hashtbl.find_opt t.nodes name with Some n -> n.preds | None -> []

let has_cycle t =
  (* Kahn's algorithm: if we cannot consume all tables, there is a cycle. *)
  let in_deg = Hashtbl.create (Hashtbl.length t.nodes) in
  let queue = Queue.create () in
  Hashtbl.iter
    (fun name n ->
      let d = List.length n.preds in
      Hashtbl.replace in_deg name d;
      if d = 0 then Queue.add n queue)
    t.nodes;
  let consumed = ref 0 in
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    incr consumed;
    List.iter
      (fun succ ->
        let d = Hashtbl.find in_deg succ - 1 in
        Hashtbl.replace in_deg succ d;
        if d = 0 then Queue.add (Hashtbl.find t.nodes succ) queue)
      n.succs
  done;
  !consumed <> Hashtbl.length t.nodes

let critical_path t =
  let memo = Hashtbl.create 16 in
  let rec height name =
    match Hashtbl.find_opt memo name with
    | Some h -> h
    | None ->
        let h =
          1
          + List.fold_left (fun acc p -> max acc (height p)) 0 (predecessors t name)
        in
        Hashtbl.replace memo name h;
        h
  in
  List.fold_left
    (fun acc tab -> max acc (height tab.table_name))
    0 (tables t)
