type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
}

(* NaN poisons every aggregate and, worse, makes [Float.compare]-based
   sorting silently order-dependent — so the statistics below reject it
   loudly instead of propagating it. *)
let reject_nan name xs =
  if List.exists Float.is_nan xs then invalid_arg (name ^ ": NaN input")

let mean = function
  | [] -> invalid_arg "Stats.mean: empty"
  | xs ->
      reject_nan "Stats.mean" xs;
      List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let summarize = function
  | [] -> invalid_arg "Stats.summarize: empty"
  | xs ->
      reject_nan "Stats.summarize" xs;
      let n = List.length xs in
      let mu = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.0)) 0.0 xs
        /. float_of_int n
      in
      {
        n;
        mean = mu;
        min = List.fold_left Float.min infinity xs;
        max = List.fold_left Float.max neg_infinity xs;
        stddev = sqrt var;
      }

let linear_fit points =
  match points with
  | [] | [ _ ] -> invalid_arg "Stats.linear_fit: need >= 2 points"
  | _ ->
      let n = float_of_int (List.length points) in
      let sx = Listx.sum_by fst points in
      let sy = Listx.sum_by snd points in
      let sxx = Listx.sum_by (fun (x, _) -> x *. x) points in
      let sxy = Listx.sum_by (fun (x, y) -> x *. y) points in
      let denom = (n *. sxx) -. (sx *. sx) in
      if Float.abs denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x"
      else
        let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
        let intercept = (sy -. (slope *. sx)) /. n in
        (slope, intercept)

let rank p n =
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p outside [0, 100]";
  int_of_float (ceil (p /. 100.0 *. float_of_int n)) |> max 1 |> min n

(* Heapsort of [xs.(lo .. hi-1)], with direct float comparisons: a
   comparator closure would box both operands of every comparison. *)
let heapsort (xs : float array) lo hi =
  let sift root stop =
    let r = ref root and go = ref true in
    while !go do
      let c = (2 * (!r - lo)) + 1 + lo in
      if c >= stop then go := false
      else begin
        let c = if c + 1 < stop && xs.(c + 1) > xs.(c) then c + 1 else c in
        if xs.(c) > xs.(!r) then begin
          let tmp = xs.(!r) in
          xs.(!r) <- xs.(c);
          xs.(c) <- tmp;
          r := c
        end
        else go := false
      end
    done
  in
  for i = lo + ((hi - lo) / 2) - 1 downto lo do
    sift i hi
  done;
  for last = hi - 1 downto lo + 1 do
    let tmp = xs.(lo) in
    xs.(lo) <- xs.(last);
    xs.(last) <- tmp;
    sift lo last
  done

let swap (xs : float array) i j =
  let tmp = xs.(i) in
  xs.(i) <- xs.(j);
  xs.(j) <- tmp

(* Quickselect: reorder [xs.(lo .. hi-1)] so that [xs.(k)] holds the
   value it would hold if the range were sorted, with no larger value
   before it and no smaller one after. Hoare partitions around the
   median of the first, middle and last elements; past [2 log2 n]
   rounds the remaining range is heapsorted, so adversarial inputs
   cost O(n log n) at worst. *)
let select (xs : float array) lo hi k =
  let lo = ref lo and hi = ref (hi - 1) in
  let depth = ref 0 in
  let m = ref (!hi - !lo + 1) in
  while !m > 1 do
    depth := !depth + 2;
    m := !m / 2
  done;
  while !hi > !lo do
    if !depth = 0 then begin
      heapsort xs !lo (!hi + 1);
      hi := !lo
    end
    else begin
      decr depth;
      let mid = !lo + ((!hi - !lo) / 2) in
      if xs.(mid) < xs.(!lo) then swap xs mid !lo;
      if xs.(!hi) < xs.(!lo) then swap xs !hi !lo;
      if xs.(!hi) < xs.(mid) then swap xs !hi mid;
      let pivot = xs.(mid) in
      let i = ref (!lo - 1) and j = ref (!hi + 1) and go = ref true in
      while !go do
        incr i;
        while xs.(!i) < pivot do
          incr i
        done;
        decr j;
        while xs.(!j) > pivot do
          decr j
        done;
        if !i >= !j then go := false else swap xs !i !j
      done;
      (* [xs.(lo .. j)] <= pivot <= [xs.(j+1 .. hi)], lo <= j < hi *)
      if k <= !j then hi := !j else lo := !j + 1
    end
  done

let tail_summary (xs : float array) n =
  if n < 0 || n > Array.length xs then invalid_arg "Stats.tail_summary: length";
  let sum = ref 0.0 and max_x = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. xs.(i);
    if xs.(i) > !max_x then max_x := xs.(i)
  done;
  if n = 0 then (0.0, 0.0, 0.0, 0.0)
  else begin
    let mean = !sum /. float_of_int n in
    (* p99 first: it leaves the [k99] smallest samples in front of it,
       and the p50 rank lies among them *)
    let k99 = rank 99.0 n - 1 and k50 = rank 50.0 n - 1 in
    select xs 0 n k99;
    if k50 < k99 then select xs 0 k99 k50;
    (mean, xs.(k50), xs.(k99), !max_x)
  end

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty"
  | xs ->
      reject_nan "Stats.percentile" xs;
      let xs = Array.of_list xs in
      let n = Array.length xs in
      let k = rank p n - 1 in
      select xs 0 n k;
      xs.(k)
