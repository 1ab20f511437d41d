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

let iter f t =
  for i = t.head to t.tail - 1 do
    f t.buf.(i mod t.cap)
  done
