(** Two-stage piecewise-linear RMI over a sorted key array, with a
    guaranteed per-leaf error bound.

    [lookup t k] returns the greatest index [i] with [keys.(i) <= k]
    (the predecessor rank), or [-1] when [k] precedes every key. The
    model predicts a position, and a binary search over the window
    [pred ± err] finishes the job; the window provably contains the
    true rank (see docs/CLASSIFIER.md for the argument), so the result
    is exact — the model only bounds how much searching is left. *)

type t

val build : int array -> t
(** Keys must be strictly increasing (the computed index feeds it the
    left endpoints of disjoint intervals). *)

val max_error : t -> int
(** The largest per-leaf guaranteed bound — search never scans a window
    wider than [2 * max_error + 1]. *)

val lookup : t -> int -> int * int
(** [(predecessor rank | -1, binary-search steps taken)]. *)
