open Lemur_p4

type extracted = { header : string; fields : (string * int) list }

type outcome = { headers : extracted list; accepted : bool }

exception Unknown_header of string

let layout name =
  match P4header.lookup name with
  | Some h -> h
  | None -> raise (Unknown_header name)

let run tree packet =
  let rec go header_name bit_offset acc =
    let h = layout header_name in
    match Bitpack.read h packet ~bit_offset with
    | exception Invalid_argument _ -> { headers = List.rev acc; accepted = false }
    | fields -> (
        let acc = { header = header_name; fields } :: acc in
        let next_offset = bit_offset + P4header.total_bits h in
        match Parsetree.find_state tree header_name with
        | None -> { headers = List.rev acc; accepted = true } (* leaf *)
        | Some state -> (
            match state.Parsetree.select_field with
            | None -> (
                (* only a default transition is meaningful here *)
                match
                  List.find_opt
                    (fun tr -> tr.Parsetree.select_value = None)
                    state.Parsetree.transitions
                with
                | Some tr -> go tr.Parsetree.next next_offset acc
                | None -> { headers = List.rev acc; accepted = true })
            | Some field -> (
                match List.assoc_opt field fields with
                | None -> { headers = List.rev acc; accepted = false }
                | Some v -> (
                    let matching =
                      List.find_opt
                        (fun tr -> tr.Parsetree.select_value = Some v)
                        state.Parsetree.transitions
                    in
                    let fallback =
                      List.find_opt
                        (fun tr -> tr.Parsetree.select_value = None)
                        state.Parsetree.transitions
                    in
                    match (matching, fallback) with
                    | Some tr, _ | None, Some tr -> go tr.Parsetree.next next_offset acc
                    | None, None ->
                        (* P4's implicit default: stop parsing, accept *)
                        { headers = List.rev acc; accepted = true }))))
  in
  go tree.Parsetree.root 0 []

let header_field outcome ~header ~field =
  match List.find_opt (fun e -> String.equal e.header header) outcome.headers with
  | None -> None
  | Some e -> List.assoc_opt field e.fields
