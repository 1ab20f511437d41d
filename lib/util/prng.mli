(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component in Lemur (profiling noise, traffic
    generation, simulator cycle costs) draws from an explicit [Prng.t] so
    that experiments are reproducible bit-for-bit from a seed. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy continuing from the same state. *)

val split : t -> t
(** Derive a statistically independent child generator; the parent
    advances. Useful to give each simulated entity its own stream. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound) — exactly uniform, via
    rejection sampling of the 62-bit raw draw, even for bounds near
    [max_int]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in \[lo, hi). *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal variate (Box–Muller). *)

val truncated_gaussian : t -> mu:float -> sigma:float -> lo:float -> hi:float -> float
(** Normal variate rejected outside \[lo, hi] (resampled; falls back to
    clamping after 64 rejections to guarantee termination). *)

type law = { mu : float; sigma : float; lo : float; hi : float }
(** A truncated-Gaussian law, built once and sampled many times. *)

val sample : t -> law -> float
(** [sample t l] draws exactly what [truncated_gaussian] draws with
    [l]'s parameters. Passing the law as one record keeps the four
    float arguments unboxed, so a per-packet draw allocates only its
    result. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
