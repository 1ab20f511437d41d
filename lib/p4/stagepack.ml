type assignment = { stages_used : int; stage_of_table : (string * int) list }

(* Round-based list scheduling: each round visits the unplaced tables in
   insertion order (which need not be topological) and places every one
   whose predecessors are all placed — including those placed earlier in
   the same round — in the earliest stage after them with a free slot. A
   counter of unplaced predecessors per table makes each visit O(1), so
   a pack costs O(rounds * V + E). A round that places nothing means the
   remaining tables lie on a cycle. *)
let pack ~capacity graph =
  if capacity < 1 then invalid_arg "Stagepack.pack: capacity < 1";
  let tables = Array.of_list (Tablegraph.tables graph) in
  let n = Array.length tables in
  let index = Hashtbl.create n in
  Array.iteri (fun i t -> Hashtbl.add index t.Tablegraph.table_name i) tables;
  let preds =
    Array.map
      (fun t ->
        List.map (Hashtbl.find index)
          (Tablegraph.predecessors graph t.Tablegraph.table_name))
      tables
  in
  let succs = Array.make n [] in
  Array.iteri (fun i ps -> List.iter (fun p -> succs.(p) <- i :: succs.(p)) ps) preds;
  let unplaced = Array.map List.length preds in
  let stage_of = Array.make n (-1) in
  (* A table's stage never exceeds the number of tables placed before
     it, so [n] slots suffice. *)
  let load = Array.make n 0 in
  let remaining = Array.init n Fun.id in
  let n_remaining = ref n in
  while !n_remaining > 0 do
    let kept = ref 0 in
    for k = 0 to !n_remaining - 1 do
      let i = remaining.(k) in
      if unplaced.(i) = 0 then begin
        let stage =
          ref (List.fold_left (fun acc p -> max acc (stage_of.(p) + 1)) 0 preds.(i))
        in
        while load.(!stage) >= capacity do
          incr stage
        done;
        stage_of.(i) <- !stage;
        load.(!stage) <- load.(!stage) + 1;
        List.iter (fun s -> unplaced.(s) <- unplaced.(s) - 1) succs.(i)
      end
      else begin
        remaining.(!kept) <- i;
        incr kept
      end
    done;
    if !kept = !n_remaining then invalid_arg "Stagepack.pack: dependency cycle";
    n_remaining := !kept
  done;
  let stage_of_table =
    Array.to_list (Array.mapi (fun i t -> (t.Tablegraph.table_name, stage_of.(i))) tables)
  in
  let stages_used = Array.fold_left (fun acc s -> max acc (s + 1)) 0 stage_of in
  { stages_used; stage_of_table }

let fits ~capacity ~max_stages graph =
  (pack ~capacity graph).stages_used <= max_stages

let estimate ~capacity graph =
  let reduced = max 1 (capacity - 1) in
  (pack ~capacity:reduced graph).stages_used

let naive_stages graph = (pack ~capacity:1 graph).stages_used
