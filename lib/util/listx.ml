let cartesian lists =
  let add_choices acc choices =
    List.concat_map (fun prefix -> List.map (fun c -> c :: prefix) choices) acc
  in
  List.map List.rev (List.fold_left add_choices [ [] ] lists)

let rec compositions n k =
  if k = 0 then if n = 0 then [ [] ] else []
  else if n < k then []
  else
    (* first part ranges over 1 .. n - (k - 1) *)
    let rec parts i acc =
      if i > n - (k - 1) then List.rev acc
      else
        let tails = compositions (n - i) (k - 1) in
        parts (i + 1) (List.rev_append (List.map (fun t -> i :: t) tails) acc)
    in
    parts 1 []

let rec weak_compositions n k =
  if k = 0 then if n = 0 then [ [] ] else []
  else
    let rec parts i acc =
      if i > n then List.rev acc
      else
        let tails = weak_compositions (n - i) (k - 1) in
        parts (i + 1) (List.rev_append (List.map (fun t -> i :: t) tails) acc)
    in
    parts 0 []

let group_consecutive related items =
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | x :: rest -> (
        match current with
        | prev :: _ when related prev x -> go (x :: current) acc rest
        | _ :: _ -> go [ x ] (List.rev current :: acc) rest
        | [] -> go [ x ] acc rest)
  in
  match items with [] -> [] | x :: rest -> go [ x ] [] rest

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let max_by score = function
  | [] -> None
  | x :: rest ->
      let best =
        List.fold_left
          (fun (bx, bs) y ->
            let s = score y in
            if s > bs then (y, s) else (bx, bs))
          (x, score x) rest
      in
      Some (fst best)

let min_by score items = max_by (fun x -> -.score x) items

let sum_by f items = List.fold_left (fun acc x -> acc +. f x) 0.0 items

let index_of pred items =
  let rec go i = function
    | [] -> None
    | x :: rest -> if pred x then Some i else go (i + 1) rest
  in
  go 0 items

let uniq eq items =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest -> if List.exists (eq x) acc then go acc rest else go (x :: acc) rest
  in
  go [] items
