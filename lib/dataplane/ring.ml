type t = {
  buf : int array;
  cap : int;
  mutable head : int;  (* slot of the oldest handle, in [0, cap) *)
  mutable tail : int;  (* slot the next push fills, in [0, cap) *)
  mutable pushed : int;  (* monotonic: total pushed *)
  mutable popped : int;  (* monotonic: total taken *)
}

let none = -1

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity < 1";
  { buf = Array.make capacity none; cap = capacity; head = 0; tail = 0;
    pushed = 0; popped = 0 }

let length t = t.pushed - t.popped
let is_empty t = t.pushed = t.popped
let is_full t = t.pushed - t.popped = t.cap
let pushed t = t.pushed
let popped t = t.popped

let push t x =
  if is_full t then false
  else begin
    t.buf.(t.tail) <- x;
    t.tail <- (if t.tail + 1 = t.cap then 0 else t.tail + 1);
    t.pushed <- t.pushed + 1;
    true
  end

let top t = if is_empty t then none else t.buf.(t.head)

let take t =
  if is_empty t then none
  else begin
    let x = t.buf.(t.head) in
    t.head <- (if t.head + 1 = t.cap then 0 else t.head + 1);
    t.popped <- t.popped + 1;
    x
  end

let iter f t =
  let i = ref t.head in
  for _ = 1 to length t do
    f t.buf.(!i);
    i := if !i + 1 = t.cap then 0 else !i + 1
  done
