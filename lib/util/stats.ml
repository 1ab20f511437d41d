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

let clamp ~lo ~hi x = Float.min hi (Float.max lo x)

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

(* Heapsort with direct float comparisons: a comparator closure would
   box both operands of every comparison. *)
let sort_floats (xs : float array) n =
  if n < 0 || n > Array.length xs then invalid_arg "Stats.sort_floats: length";
  let sift root stop =
    let r = ref root and go = ref true in
    while !go do
      let c = (2 * !r) + 1 in
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
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let tmp = xs.(0) in
    xs.(0) <- xs.(last);
    xs.(last) <- tmp;
    sift 0 last
  done

let percentile_sorted p (xs : float array) n =
  if n < 1 || n > Array.length xs then invalid_arg "Stats.percentile_sorted: length";
  xs.(rank p n - 1)

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
    sort_floats xs n;
    (mean, percentile_sorted 50.0 xs n, percentile_sorted 99.0 xs n, !max_x)
  end

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty"
  | xs ->
      reject_nan "Stats.percentile" xs;
      let sorted = Array.of_list xs in
      let n = Array.length sorted in
      sort_floats sorted n;
      percentile_sorted p sorted n
