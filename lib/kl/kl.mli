(** Kernighan-Lin pair-swap bipartitioning (Bell System Tech. J., 1970).

    The historical baseline that FM improved on.  Hyperedges are clique-
    expanded with weight [w(e) / (|e| - 1)] per pair; passes tentatively
    swap the best unlocked pair until all vertices are locked, then roll
    back to the best prefix.  Pair swaps preserve vertex counts, so KL
    maintains an equal-cardinality (unit-area) bisection — the regime
    the paper notes older benchmarks were run in.  O(n^2) per pass:
    suitable for baselines and examples, not for production use. *)

type result = {
  solution : Hypart_partition.Bipartition.t;
  cut : int;  (** hyperedge cut of [solution] (not the clique-model cost) *)
  passes : int;
  swaps : int;  (** total swaps applied, including rolled-back ones *)
}

val run :
  Hypart_rng.Rng.t ->
  Hypart_hypergraph.Hypergraph.t ->
  Hypart_partition.Bipartition.t ->
  result
(** Improve an initial solution (counts on each side must differ by at
    most one; weights are ignored) by passes until one finds no
    improving prefix, at most 20.  The cancel hook is polled before
    every pass.  @raise Invalid_argument on an unequal start. *)

val run_random_start :
  Hypart_rng.Rng.t ->
  Hypart_hypergraph.Hypergraph.t ->
  result
(** Random equal-cardinality start, then {!run}. *)
