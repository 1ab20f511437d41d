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

let swap t i j =
  let k = t.keys.(i) and s = t.seqs.(i) and v = t.vals.(i) in
  t.keys.(i) <- t.keys.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.vals.(i) <- t.vals.(j);
  t.keys.(j) <- k;
  t.seqs.(j) <- s;
  t.vals.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.len && before t l i then l else i in
  let smallest = if r < t.len && before t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let push t key value =
  if t.len = Array.length t.vals then grow t value;
  t.keys.(t.len) <- key;
  t.seqs.(t.len) <- t.next_seq;
  t.vals.(t.len) <- value;
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let min_key t =
  if t.len = 0 then invalid_arg "Heap.min_key: empty";
  t.keys.(0)

let take t =
  if t.len = 0 then invalid_arg "Heap.take: empty";
  let top = t.vals.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.keys.(0) <- t.keys.(t.len);
    t.seqs.(0) <- t.seqs.(t.len);
    t.vals.(0) <- t.vals.(t.len);
    sift_down t 0
  end;
  top

let size t = t.len
let is_empty t = t.len = 0
