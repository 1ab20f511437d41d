(* Entries carry an insertion sequence number so that equal keys pop
   in FIFO order — simultaneous simulator events (e.g. two batches
   released by the same link at the same instant) must be served in
   the order they were scheduled, or downstream queue occupancy
   becomes sensitive to heap internals.

   Entries are stored column-wise: keys in an unboxed float array,
   sequence numbers and values beside them, so a push allocates no
   entry record. *)
type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }

let before t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  ki < kj || (ki = kj && t.seqs.(i) < t.seqs.(j))

let grow t filler =
  let cap = max 16 (2 * t.len) in
  let keys = Array.make cap 0.0 and seqs = Array.make cap 0 in
  let vals = Array.make cap filler in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.keys <- keys;
  t.seqs <- seqs;
  t.vals <- vals

(* Both sifts move a hole instead of swapping: the entry being placed
   stays in locals while the entries it passes shift one level into
   the hole, and it is written once where it stops. Sequence numbers
   are unique, so the order is strict and the final layout is that of
   a swap-based sift. *)
let sift_up t i key seq value =
  let i = ref i and go = ref true in
  while !go && !i > 0 do
    let parent = (!i - 1) / 2 in
    let kp = t.keys.(parent) in
    if key < kp || (key = kp && seq < t.seqs.(parent)) then begin
      t.keys.(!i) <- kp;
      t.seqs.(!i) <- t.seqs.(parent);
      t.vals.(!i) <- t.vals.(parent);
      i := parent
    end
    else go := false
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- value

(* Sifts the entry stored at [src] down from the root; [src] lies
   past [t.len], so it is never one of the children compared. Reading
   it here rather than taking its key as an argument keeps that float
   unboxed. *)
let sift_down t src =
  let key = t.keys.(src) and seq = t.seqs.(src) and value = t.vals.(src) in
  let i = ref 0 and go = ref true in
  while !go do
    let l = (2 * !i) + 1 in
    if l >= t.len then go := false
    else begin
      let c = if l + 1 < t.len && before t (l + 1) l then l + 1 else l in
      let kc = t.keys.(c) in
      if kc < key || (kc = key && t.seqs.(c) < seq) then begin
        t.keys.(!i) <- kc;
        t.seqs.(!i) <- t.seqs.(c);
        t.vals.(!i) <- t.vals.(c);
        i := c
      end
      else go := false
    end
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- value

let push t key value =
  if t.len = Array.length t.vals then grow t value;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) key seq value

let min_key t =
  if t.len = 0 then invalid_arg "Heap.min_key: empty";
  t.keys.(0)

let take t =
  if t.len = 0 then invalid_arg "Heap.take: empty";
  let top = t.vals.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then sift_down t t.len;
  top

let size t = t.len
let is_empty t = t.len = 0
