type t = {
  buf : int array;
  cap : int;
  mutable head : int;  (* monotonic: total taken *)
  mutable tail : int;  (* monotonic: total pushed *)
}

let none = -1

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity < 1";
  { buf = Array.make capacity none; cap = capacity; head = 0; tail = 0 }

let capacity t = t.cap
let length t = t.tail - t.head
let is_empty t = t.head = t.tail
let is_full t = t.tail - t.head = t.cap
let pushed t = t.tail
let popped t = t.head

let push t x =
  if is_full t then false
  else begin
    t.buf.(t.tail mod t.cap) <- x;
    t.tail <- t.tail + 1;
    true
  end

let top t = if is_empty t then none else t.buf.(t.head mod t.cap)

let take t =
  if is_empty t then none
  else begin
    let x = t.buf.(t.head mod t.cap) in
    t.head <- t.head + 1;
    x
  end

let push_batch t xs =
  let n = min (Array.length xs) (t.cap - length t) in
  for i = 0 to n - 1 do
    t.buf.((t.tail + i) mod t.cap) <- xs.(i)
  done;
  t.tail <- t.tail + n;
  n

let pop_batch t out =
  let n = min (Array.length out) (length t) in
  for i = 0 to n - 1 do
    out.(i) <- t.buf.((t.head + i) mod t.cap)
  done;
  t.head <- t.head + n;
  n

let iter f t =
  for i = t.head to t.tail - 1 do
    f t.buf.(i mod t.cap)
  done
