type dim = Dsrc | Ddst | Dsport | Ddport

type iset = {
  is_dim : dim;
  is_idx : Rmi.t;
  is_rows : Rule.t array;  (* sorted by interval lo; disjoint on is_dim *)
  is_his : int array;  (* right endpoints, same order *)
}

type outcome = {
  rule : Rule.t option;
  validations : int;
  search_steps : int;
  remainder_probed : bool;
  remainder_entries : int;
  remainder_won : bool;
}

type t = {
  nv_isets : iset array;
  nv_remainder : Tss.t;
  nv_remainder_rules : Rule.t array;
  nv_remainder_min_id : int;
}

let interval dim (r : Rule.t) =
  match dim with
  | Dsrc -> (r.Rule.src_lo, r.Rule.src_hi)
  | Ddst -> (r.Rule.dst_lo, r.Rule.dst_hi)
  | Dsport -> (r.Rule.sport_lo, r.Rule.sport_hi)
  | Ddport -> (r.Rule.dport_lo, r.Rule.dport_hi)

let key_of dim (h : Rule.header) =
  match dim with
  | Dsrc -> h.Rule.src
  | Ddst -> h.Rule.dst
  | Dsport -> h.Rule.sport
  | Ddport -> h.Rule.dport

(* Greedy maximum disjoint-interval selection: sort by right endpoint,
   take every interval starting after the last taken one ends. *)
let greedy_select dim rules =
  let sorted =
    List.sort
      (fun a b -> compare (snd (interval dim a)) (snd (interval dim b)))
      rules
  in
  let taken, _ =
    List.fold_left
      (fun (acc, last_hi) r ->
        let lo, hi = interval dim r in
        if lo > last_hi then (r :: acc, hi) else (acc, last_hi))
      ([], -1) sorted
  in
  List.rev taken

let all_dims = [ Dsrc; Ddst; Dsport; Ddport ]

let max_isets = 8

let build rs =
  let isets = ref [] in
  let pool = ref (Array.to_list (Ruleset.rules rs)) in
  let continue = ref true in
  while !continue && List.length !isets < max_isets && !pool <> [] do
    let best_dim, best =
      List.fold_left
        (fun (bd, bs) dim ->
          let s = greedy_select dim !pool in
          if List.length s > List.length bs then (dim, s) else (bd, bs))
        (Dsrc, []) all_dims
    in
    (* Below this yield the model stops paying for itself; everything
       left is remainder material. *)
    let threshold = max 8 (List.length !pool / 16) in
    if List.length best < threshold then continue := false
    else begin
      let rows =
        Array.of_list
          (List.sort
             (fun a b ->
               compare (fst (interval best_dim a)) (fst (interval best_dim b)))
             best)
      in
      let keys = Array.map (fun r -> fst (interval best_dim r)) rows in
      let his = Array.map (fun r -> snd (interval best_dim r)) rows in
      isets :=
        {
          is_dim = best_dim;
          is_idx = Rmi.build keys;
          is_rows = rows;
          is_his = his;
        }
        :: !isets;
      let member = Hashtbl.create (Array.length rows) in
      Array.iter (fun (r : Rule.t) -> Hashtbl.replace member r.Rule.id ()) rows;
      pool := List.filter (fun (r : Rule.t) -> not (Hashtbl.mem member r.Rule.id)) !pool
    end
  done;
  let remainder_rules = Array.of_list !pool in
  {
    nv_isets = Array.of_list (List.rev !isets);
    nv_remainder = Tss.build remainder_rules;
    nv_remainder_rules = remainder_rules;
    nv_remainder_min_id =
      Array.fold_left
        (fun m (r : Rule.t) -> min m r.Rule.id)
        max_int remainder_rules;
  }

let isets t = Array.length t.nv_isets
let iset_sizes t =
  Array.to_list (Array.map (fun i -> Array.length i.is_rows) t.nv_isets)
let remainder_rules t = t.nv_remainder_rules
let remainder_tuples t = Tss.tuples t.nv_remainder
let max_model_error t =
  Array.fold_left (fun m i -> max m (Rmi.max_error i.is_idx)) 0 t.nv_isets

let classify t (h : Rule.header) =
  let best = ref None in
  let validations = ref 0 and steps = ref 0 in
  Array.iter
    (fun is ->
      let k = key_of is.is_dim h in
      let pos, s = Rmi.lookup is.is_idx k in
      steps := !steps + s;
      (* Disjoint intervals: the predecessor interval is the only one
         that can contain the key. *)
      if pos >= 0 && k <= is.is_his.(pos) then begin
        incr validations;
        let r = is.is_rows.(pos) in
        if Rule.matches r h then
          match !best with
          | Some (b : Rule.t) when b.Rule.id <= r.Rule.id -> ()
          | _ -> best := Some r
      end)
    t.nv_isets;
  let best_id = match !best with Some (r : Rule.t) -> r.Rule.id | None -> max_int in
  if t.nv_remainder_min_id < best_id then begin
    let rule, _probes, entries = Tss.classify t.nv_remainder h in
    let won =
      match (rule, !best) with
      | Some (r : Rule.t), Some b -> r.Rule.id < b.Rule.id
      | Some _, None -> true
      | None, _ -> false
    in
    let final =
      match (rule, !best) with
      | Some r, Some b -> if r.Rule.id < b.Rule.id then Some r else Some b
      | Some r, None -> Some r
      | None, b -> b
    in
    {
      rule = final;
      validations = !validations;
      search_steps = !steps;
      remainder_probed = true;
      remainder_entries = entries;
      remainder_won = won;
    }
  end
  else
    {
      rule = !best;
      validations = !validations;
      search_steps = !steps;
      remainder_probed = false;
      remainder_entries = 0;
      remainder_won = false;
    }

let corrupt_remainder_for_test t =
  if Array.length t.nv_remainder_rules = 0 then None
  else begin
    let victim =
      Array.fold_left
        (fun (acc : Rule.t) r -> if r.Rule.id < acc.Rule.id then r else acc)
        t.nv_remainder_rules.(0) t.nv_remainder_rules
    in
    let kept =
      Array.of_list
        (List.filter
           (fun (r : Rule.t) -> r.Rule.id <> victim.Rule.id)
           (Array.to_list t.nv_remainder_rules))
    in
    Some
      ( {
          t with
          nv_remainder = Tss.build kept;
          nv_remainder_rules = kept;
          (* Keep the advertised min id: the corruption must stay
             invisible to the short-circuit, as a real bug would be. *)
        },
        victim )
  end
