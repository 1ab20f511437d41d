type transition = { select_value : int option; next : string }

type state = {
  header : string;
  select_field : string option;
  transitions : transition list;
}

type t = { root : string; states : state list }

exception Conflict of string

let conflict fmt = Format.kasprintf (fun s -> raise (Conflict s)) fmt

let leaf root = { root; states = [] }

let make ~root states =
  let names = List.map (fun s -> s.header) states in
  if List.length names <> List.length (Lemur_util.Listx.uniq String.equal names)
  then invalid_arg "Parsetree.make: duplicate state for a header";
  { root; states }

let find_state t header =
  List.find_opt (fun s -> String.equal s.header header) t.states

let merge_state a b =
  (* Same header: reconcile select fields, union transitions. *)
  let select_field =
    match (a.select_field, b.select_field) with
    | Some f, Some g when not (String.equal f g) ->
        conflict "header %s selects on both %s and %s" a.header f g
    | Some f, _ -> Some f
    | None, other -> other
  in
  let add acc tr =
    match
      List.find_opt (fun t0 -> t0.select_value = tr.select_value) acc
    with
    | Some existing ->
        if String.equal existing.next tr.next then acc
        else
          conflict
            "header %s: transition on %s maps to both %s and %s" a.header
            (match tr.select_value with
            | None -> "default"
            | Some v -> string_of_int v)
            existing.next tr.next
    | None -> acc @ [ tr ]
  in
  let transitions = List.fold_left add a.transitions b.transitions in
  { header = a.header; select_field; transitions }

let merge t1 t2 =
  if not (String.equal t1.root t2.root) then
    conflict "parse trees rooted at %s vs %s" t1.root t2.root;
  let merged =
    List.fold_left
      (fun acc s ->
        match List.find_opt (fun s0 -> String.equal s0.header s.header) acc with
        | None -> acc @ [ s ]
        | Some existing ->
            List.map
              (fun s0 ->
                if String.equal s0.header s.header then merge_state existing s
                else s0)
              acc)
      t1.states t2.states
  in
  { root = t1.root; states = merged }

let merge_all = function
  | [] -> invalid_arg "Parsetree.merge_all: empty"
  | t :: rest -> List.fold_left merge t rest

let headers t =
  let reachable = ref [ t.root ] in
  let rec visit header =
    match find_state t header with
    | None -> ()
    | Some s ->
        List.iter
          (fun tr ->
            if not (List.mem tr.next !reachable) then begin
              reachable := !reachable @ [ tr.next ];
              visit tr.next
            end)
          s.transitions
  in
  visit t.root;
  !reachable

let depth t =
  let rec go header seen =
    if List.mem header seen then 0 (* defensive: no cycles expected *)
    else
      match find_state t header with
      | None -> 1
      | Some s ->
          1
          + List.fold_left
              (fun acc tr -> max acc (go tr.next (header :: seen)))
              0 s.transitions
  in
  go t.root []

let equal a b =
  String.equal a.root b.root
  && List.length a.states = List.length b.states
  && List.for_all
       (fun sa ->
         match find_state b sa.header with
         | None -> false
         | Some sb ->
             sa.select_field = sb.select_field
             && List.length sa.transitions = List.length sb.transitions
             && List.for_all
                  (fun tr ->
                    List.exists
                      (fun tb ->
                        tb.select_value = tr.select_value
                        && String.equal tb.next tr.next)
                      sb.transitions)
                  sa.transitions)
       a.states
