type module_kind =
  | Port_inc
  | Port_out
  | Nsh_decap
  | Nsh_encap
  | Nf of { instance : Lemur_nf.Instance.t }
  | Core_lb of { fanout : int }
  | Queue of { size : int }

type m = { module_id : string; kind : module_kind }

type t = {
  server_name : string;
  mutable module_list : m list; (* reversed *)
  mutable connection_list : (string * string) list; (* reversed *)
}

let create ~server = { server_name = server; module_list = []; connection_list = [] }

let find t id = List.find_opt (fun m -> String.equal m.module_id id) t.module_list

let add t m =
  if find t m.module_id <> None then
    invalid_arg (Printf.sprintf "Module_graph.add: duplicate module %S" m.module_id);
  t.module_list <- m :: t.module_list

let connect t ~src ~dst =
  if find t src = None then
    invalid_arg (Printf.sprintf "Module_graph.connect: unknown module %S" src);
  if find t dst = None then
    invalid_arg (Printf.sprintf "Module_graph.connect: unknown module %S" dst);
  t.connection_list <- (src, dst) :: t.connection_list

let modules t = List.rev t.module_list
let connections t = List.rev t.connection_list

let out_degree t id =
  List.length (List.filter (fun (s, _) -> String.equal s id) t.connection_list)

let validate t =
  let mods = modules t in
  let count kind_pred = List.length (List.filter (fun m -> kind_pred m.kind) mods) in
  let n_inc = count (fun k -> k = Port_inc) in
  let n_out = count (fun k -> k = Port_out) in
  if n_inc <> 1 then Error (Printf.sprintf "expected 1 Port_inc, found %d" n_inc)
  else if n_out <> 1 then Error (Printf.sprintf "expected 1 Port_out, found %d" n_out)
  else begin
    let inc = List.find (fun m -> m.kind = Port_inc) mods in
    (* reachability *)
    let reached = Hashtbl.create 16 in
    let rec visit id =
      if not (Hashtbl.mem reached id) then begin
        Hashtbl.replace reached id ();
        List.iter
          (fun (s, d) -> if String.equal s id then visit d)
          t.connection_list
      end
    in
    visit inc.module_id;
    match
      List.find_opt (fun m -> not (Hashtbl.mem reached m.module_id)) mods
    with
    | Some unreachable ->
        Error (Printf.sprintf "module %S unreachable from Port_inc" unreachable.module_id)
    | None -> (
        match
          List.find_opt
            (fun m -> m.kind <> Port_out && out_degree t m.module_id = 0)
            mods
        with
        | Some dead_end ->
            Error (Printf.sprintf "module %S has no successor" dead_end.module_id)
        | None -> Ok ())
  end
