(* The splitmix64 state lives unboxed in an 8-byte buffer: a [mutable
   state : int64] field would allocate a fresh box on every draw. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type law = { mu : float; sigma : float; lo : float; hi : float }

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] next_seed t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  s

(* splitmix64 finalizer *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t = mix (next_seed t)

let bits64 = next

let split t = of_state (next t)

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's 63-bit native int. The raw
     draw r spans exactly R = 2^62 = max_int + 1 values, so a bare
     [r mod bound] over-weights the low residues whenever bound does not
     divide R (a factor-2 skew for bounds near 2^62). Rejection
     sampling: discard the ragged tail above the largest multiple of
     [bound]; R itself is unrepresentable, so the tail length is
     computed through max_int = R - 1. *)
  let rem = ((max_int mod bound) + 1) mod bound in
  let cutoff = max_int - rem in
  let r = ref (Int64.to_int (Int64.shift_right_logical (next t) 2)) in
  while !r > cutoff do
    r := Int64.to_int (Int64.shift_right_logical (next t) 2)
  done;
  !r mod bound

let[@inline] float53 t =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

let float t bound = float53 t *. bound

let uniform t ~lo ~hi = lo +. (float53 t *. (hi -. lo))

let[@inline] gaussian t ~mu ~sigma =
  (* Box–Muller; avoid log 0 by shifting u1 away from zero. *)
  let u1 = 1.0 -. float53 t and u2 = float53 t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

(* Up to 64 draws; [n] jumps past 64 once one lands in [lo, hi]. *)
let[@inline] truncated t mu sigma lo hi =
  let x = ref 0.0 and n = ref 0 in
  while !n < 64 do
    let g = gaussian t ~mu ~sigma in
    if g >= lo && g <= hi then begin
      x := g;
      n := 65
    end
    else incr n
  done;
  if !n = 64 then Float.min hi (Float.max lo mu) else !x

let truncated_gaussian t ~mu ~sigma ~lo ~hi = truncated t mu sigma lo hi

let sample t l = truncated t l.mu l.sigma l.lo l.hi

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
