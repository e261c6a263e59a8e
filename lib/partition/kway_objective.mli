(** Objectives for k-way partitionings (assignment arrays).

    The 2-way objectives live in {!Objective}; k-way evaluation adds the
    two standard multi-way generalizations of net cut used throughout
    the hMetis line of work:

    - {b hyperedge cut}: weight of nets spanning at least two parts
      (each counted once, however many parts it touches);
    - {b (k-1) metric}: each net contributes [w(e) (lambda(e) - 1)]
      where [lambda(e)] is the number of parts it touches — the cost
      model of multi-terminal routing;
    - {b SOED} (sum of external degrees): cut nets contribute
      [w(e) lambda(e)].

    It also holds the one k-way balance rule, {!window} and {!is_legal}. *)

(* kept: the per-net term of the (k-1) and SOED objectives below *)
val lambda : Hypart_hypergraph.Hypergraph.t -> int array -> int -> int
(** Number of distinct parts net [e] touches. *)

val cut : Hypart_hypergraph.Hypergraph.t -> int array -> int
(** Weighted hyperedge cut; k-way FM's starting cut. *)

(* kept: the (k-1) objective this module defines; no command reports it yet *)
val k_minus_1 : Hypart_hypergraph.Hypergraph.t -> int array -> int

(* kept: the SOED objective this module defines; no command reports it yet *)
val soed : Hypart_hypergraph.Hypergraph.t -> int array -> int

val part_weights : Hypart_hypergraph.Hypergraph.t -> int array -> k:int -> int array
(** Total vertex weight per part.  @raise Invalid_argument when an
    assignment entry falls outside [0, k). *)

val imbalance : Hypart_hypergraph.Hypergraph.t -> int array -> k:int -> float
(** The largest [|part weight / (total weight / k) - 1|]: how far the
    part furthest from the perfect k-way split lies from it, over or
    under ([0.] is exact), so that it agrees with the two-sided
    {!window}.  [0.] for an empty instance.  @raise Invalid_argument
    as {!part_weights}. *)

val window : tolerance:float -> k:int -> int -> int * int
(** [window ~tolerance ~k total]: the part-weight bounds
    [(floor ((1 - tolerance) total / k), ceil ((1 + tolerance) total / k))]
    every k-way partitioner is held to. *)

val is_legal : int * int -> int array -> bool
(** Every part weight lies in the window. *)
