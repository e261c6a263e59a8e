(** Deterministic pseudo-random number generation.

    All randomness in [hypart] flows through values of type {!t}, passed
    explicitly, so that every experiment is reproducible from its seed.
    The core generator is splitmix64 (Steele, Lea & Flood 2014): a tiny,
    fast, well-distributed 64-bit generator whose state is a single
    integer, which makes {!copy} trivial and cheap.  Sub-experiments
    that need their own streams derive their own seeds. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent duplicate of the current state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int r bound] is uniform on [0, bound-1].  [bound] must be positive. *)

(* kept: the bounded draw [sample_distinct] uses; tested directly *)
val int_in : t -> int -> int -> int
(** [int_in r lo hi] is uniform on [lo, hi] inclusive.  Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float r bound] is uniform on [0, bound). *)

val bool : t -> bool

val geometric : t -> p:float -> int
(** Geometric variate with success probability [p] (0 < p <= 1): the
    number of trials until first success, support {1, 2, ...}. *)

val permutation : t -> int -> int array
(** [permutation r n] is a uniformly random permutation of [0..n-1]. *)

val sample_distinct : t -> n:int -> universe:int -> int array
(** [sample_distinct r ~n ~universe] draws [n] distinct integers from
    [0..universe-1], in random order.  Requires [n <= universe].  Uses a
    partial Fisher-Yates for small [n] relative to [universe] and a full
    shuffle otherwise. *)

val choose_weighted : t -> float array -> int
(** [choose_weighted r w] returns index [i] with probability
    [w.(i) / sum w].  Weights must be nonnegative with positive sum. *)
