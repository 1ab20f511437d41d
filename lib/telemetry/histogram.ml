type t = {
  name : string;
  bounds : float array;
  counts : int array; (* length = Array.length bounds + 1; last = overflow *)
  mu : Mutex.t; (* guards every mutable field: recorders may be on any domain *)
  mutable n : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let default_bounds = Array.init 33 (fun i -> 100.0 *. (10.0 ** (float_of_int i /. 4.0)))

let make ?(bounds = default_bounds) name =
  if Array.length bounds = 0 then invalid_arg "Histogram.make: empty bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Histogram.make: bounds must be strictly increasing")
    bounds;
  {
    name;
    bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    mu = Mutex.create ();
    n = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let name t = t.name

(* Index of the first bound >= v, or the overflow slot. *)
let[@inline] bucket_of t v =
  let lo = ref 0 and hi = ref (Array.length t.bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.bounds.(mid) >= v then hi := mid else lo := mid + 1
  done;
  !lo

let record t v =
  let b = bucket_of t v in
  Mutex.lock t.mu;
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  Mutex.unlock t.mu

(* One lock for the whole batch; the running sum, min and max stay in
   locals so no float is boxed per sample. Samples are folded in array
   order, so the sum matches [n] calls to [record]. *)
let record_many t (xs : float array) n =
  if n < 0 || n > Array.length xs then invalid_arg "Histogram.record_many: length";
  Mutex.lock t.mu;
  let sum = ref t.sum and lo = ref t.min_v and hi = ref t.max_v in
  for i = 0 to n - 1 do
    let v = xs.(i) in
    let b = bucket_of t v in
    t.counts.(b) <- t.counts.(b) + 1;
    sum := !sum +. v;
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  t.n <- t.n + n;
  t.sum <- !sum;
  t.min_v <- !lo;
  t.max_v <- !hi;
  Mutex.unlock t.mu

let count t = t.n
let sum t = t.sum
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
let min_value t = if t.n = 0 then 0.0 else t.min_v
let max_value t = if t.n = 0 then 0.0 else t.max_v

let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let rank =
      int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) |> max 1 |> min t.n
    in
    let cum = ref 0 and result = ref t.max_v in
    (try
       Array.iteri
         (fun i c ->
           cum := !cum + c;
           if !cum >= rank then begin
             result :=
               (if i < Array.length t.bounds then
                  Float.min t.bounds.(i) t.max_v
                else t.max_v);
             raise Exit
           end)
         t.counts
     with Exit -> ());
    !result
  end

let bucket_counts t =
  let acc = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then
        let le = if i < Array.length t.bounds then t.bounds.(i) else infinity in
        acc := (le, c) :: !acc)
    t.counts;
  List.rev !acc

let to_json t =
  Json.Obj
    [
      ("name", Json.String t.name);
      ("count", Json.Int t.n);
      ("sum", Json.Float t.sum);
      ("mean", Json.Float (mean t));
      ("min", Json.Float (min_value t));
      ("max", Json.Float (max_value t));
      ("p50", Json.Float (percentile t 50.0));
      ("p90", Json.Float (percentile t 90.0));
      ("p99", Json.Float (percentile t 99.0));
      ("p999", Json.Float (percentile t 99.9));
      ( "buckets",
        Json.List
          (List.map
             (fun (le, c) ->
               Json.Obj
                 [
                   ("le", if le = infinity then Json.Null else Json.Float le);
                   ("count", Json.Int c);
                 ])
             (bucket_counts t)) );
    ]
