(** List combinators missing from the standard library that the Placer's
    enumeration machinery needs. *)

val cartesian : 'a list list -> 'a list list
(** Cartesian product. [cartesian [[1;2];[3]]] = [[1;3];[2;3]]. The
    product of an empty list of lists is [[[]]]. *)

val compositions : int -> int -> int list list
(** [compositions n k] lists all ways to write [n] as an ordered sum of
    [k] positive integers. [compositions 3 2 = [[1;2];[2;1]]]. Empty if
    [n < k] or [k <= 0] (except [compositions 0 0 = [[]]]). *)

val weak_compositions : int -> int -> int list list
(** Like {!compositions} but parts may be zero. *)

val group_consecutive : ('a -> 'a -> bool) -> 'a list -> 'a list list
(** Group maximal runs of consecutive elements related by the predicate. *)

val take : int -> 'a list -> 'a list

val max_by : ('a -> float) -> 'a list -> 'a option
(** Element maximizing the score; [None] on empty list. Ties keep the
    first. *)

val min_by : ('a -> float) -> 'a list -> 'a option

val sum_by : ('a -> float) -> 'a list -> float

val index_of : ('a -> bool) -> 'a list -> int option

val uniq : ('a -> 'a -> bool) -> 'a list -> 'a list
(** Remove duplicates (quadratic; fine for the small lists we use),
    keeping first occurrences. *)
