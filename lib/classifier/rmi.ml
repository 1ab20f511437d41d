type model = { slope : float; icept : float }

type t = {
  keys : int array;
  root : model;
  leaf_models : model array;
  errs : int array;  (* per-leaf guaranteed window radius *)
}

let domain_max = 0xFFFFFFFF

(* Least squares over (key, position) pairs, slope clamped to >= 0 so
   every model is monotone non-decreasing — the error-bound argument
   leans on monotonicity (docs/CLASSIFIER.md). *)
let fit pairs =
  match pairs with
  | [] -> { slope = 0.0; icept = 0.0 }
  | [ (_, y) ] -> { slope = 0.0; icept = float_of_int y }
  | _ ->
      let n = float_of_int (List.length pairs) in
      let sx = List.fold_left (fun a (x, _) -> a +. float_of_int x) 0.0 pairs in
      let sy = List.fold_left (fun a (_, y) -> a +. float_of_int y) 0.0 pairs in
      let mx = sx /. n and my = sy /. n in
      let cov =
        List.fold_left
          (fun a (x, y) ->
            a +. ((float_of_int x -. mx) *. (float_of_int y -. my)))
          0.0 pairs
      in
      let var =
        List.fold_left
          (fun a (x, _) ->
            a +. ((float_of_int x -. mx) *. (float_of_int x -. mx)))
          0.0 pairs
      in
      if var <= 0.0 then { slope = 0.0; icept = my }
      else
        let slope = Float.max 0.0 (cov /. var) in
        { slope; icept = my -. (slope *. mx) }

let eval m k = (m.slope *. float_of_int k) +. m.icept

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let leaf_of root n_leaves n k =
  if n = 0 then 0
  else
    clamp 0 (n_leaves - 1)
      (int_of_float (eval root k *. float_of_int n_leaves /. float_of_int n))

(* Exact predecessor rank by full binary search — used during training
   to find the true position of evaluation keys. *)
let rank keys k =
  let n = Array.length keys in
  if n = 0 || k < keys.(0) then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if keys.(mid) <= k then lo := mid else hi := mid - 1
    done;
    !lo
  end

let build keys =
  let n = Array.length keys in
  let pairs = List.init n (fun i -> (keys.(i), i)) in
  let root = fit pairs in
  let n_leaves = max 1 (n / 48) in
  let buckets = Array.make n_leaves [] in
  List.iter
    (fun (k, i) ->
      let l = leaf_of root n_leaves n k in
      buckets.(l) <- (k, i) :: buckets.(l))
    pairs;
  let leaf_models = Array.map (fun b -> fit (List.rev b)) buckets in
  (* Patch empty leaves: a query key can still land there (between two
     training keys), so give the leaf a flat model at the last position
     seen in any earlier leaf. *)
  let last_pos = ref 0 in
  Array.iteri
    (fun l b ->
      (match b with
      | [] -> leaf_models.(l) <- { slope = 0.0; icept = float_of_int !last_pos }
      | _ -> ());
      List.iter (fun (_, i) -> if i > !last_pos then last_pos := i) b)
    buckets;
  (* Guaranteed error pass. The true rank t(k) is a step function that
     only changes at the keys; each model is linear and monotone inside
     a leaf, and leaf_of is monotone in k, so over any region where both
     the leaf and t(k) are constant-or-linear the error |pred - t| peaks
     at the region's endpoints. The evaluation set therefore covers (a)
     every key (rank steps), (b) every plateau right end keys.(i+1)-1
     and the domain max, and (c) both sides of every leaf-boundary key
     (leaf changes). Folding each point's error into its own leaf's
     bound makes the per-leaf radius sound for every real query key. *)
  let errs = Array.make n_leaves 0 in
  let feed k =
    if k >= 0 && k <= domain_max then begin
      let l = leaf_of root n_leaves n k in
      let t = max 0 (rank keys k) in
      let pred =
        clamp 0 (max 0 (n - 1))
          (int_of_float (Float.round (eval leaf_models.(l) k)))
      in
      let e = abs (pred - t) in
      if e > errs.(l) then errs.(l) <- e
    end
  in
  if n > 0 then begin
    Array.iter feed keys;
    for i = 0 to n - 2 do
      feed (keys.(i + 1) - 1)
    done;
    feed domain_max;
    (* Leaf boundary keys: smallest k mapping to leaf l, from inverting
       the (monotone) root scaling; evaluate both sides. *)
    if root.slope > 0.0 then
      for l = 1 to n_leaves - 1 do
        let target = float_of_int l *. float_of_int n /. float_of_int n_leaves in
        let k0 =
          int_of_float (Float.ceil ((target -. root.icept) /. root.slope))
        in
        (* The float inversion can be off by one either way; cover a
           small neighbourhood so every side of the true boundary gets
           evaluated. *)
        for k = k0 - 2 to k0 + 2 do
          feed k
        done
      done
  end;
  { keys; root; leaf_models; errs }

let max_error t = Array.fold_left max 0 t.errs

let lookup t k =
  let n = Array.length t.keys in
  if n = 0 || k < t.keys.(0) then (-1, 0)
  else begin
    let n_leaves = Array.length t.leaf_models in
    let l = leaf_of t.root n_leaves n k in
    let pred =
      clamp 0 (n - 1) (int_of_float (Float.round (eval t.leaf_models.(l) k)))
    in
    let e = t.errs.(l) in
    let lo = ref (max 0 (pred - e)) and hi = ref (min (n - 1) (pred + e)) in
    let steps = ref 0 in
    (* The window contains the true rank, so the greatest in-window
       index with key <= k is exactly the predecessor rank. *)
    while !lo < !hi do
      incr steps;
      let mid = (!lo + !hi + 1) / 2 in
      if t.keys.(mid) <= k then lo := mid else hi := mid - 1
    done;
    (!lo, !steps)
  end
