(** A bipartitioning problem instance: hypergraph, balance constraint
    and (optionally) fixed vertices.

    Fixed vertices model terminal propagation and pad locations in
    top-down placement — the paper (§2.1) notes that "almost all
    hypergraph partitioning instances have many vertices fixed in
    partitions".  A fixed vertex never moves and is never inserted into
    gain structures. *)

type t = private {
  hypergraph : Hypart_hypergraph.Hypergraph.t;
  balance : Balance.t;
  fixed : int array;  (** [-1] = free, [0]/[1] = fixed to that side *)
}

val make :
  ?fixed:int array ->
  ?fraction:float ->
  tolerance:float ->
  Hypart_hypergraph.Hypergraph.t ->
  t
(** [make ~tolerance h] builds a problem with the paper's balance
    convention (see {!Balance.of_tolerance}); with [fraction] the
    asymmetric convention {!Balance.of_fraction} is used instead (for
    recursive bisection into uneven part counts).  [fixed] defaults to
    all free.  @raise Invalid_argument on malformed [fixed]. *)

val with_balance :
  ?fixed:int array ->
  Balance.t ->
  Hypart_hypergraph.Hypergraph.t ->
  t
(** Wrap a hypergraph with an existing balance constraint — used by the
    multilevel engine, where every level of the hierarchy shares the
    finest level's (possibly asymmetric) window.  @raise
    Invalid_argument if the hypergraph's total weight disagrees with
    the constraint's. *)

val is_free : t -> int -> bool

val is_legal : t -> Bipartition.t -> bool
(** [is_legal problem s]: [s] satisfies the balance window and puts
    every fixed vertex on its side.  This is the rule every 2-way
    result's [legal] field reports. *)
