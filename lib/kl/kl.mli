(** Kernighan-Lin pair-swap bipartitioning (Bell System Tech. J., 1970).

    The historical baseline that FM improved on.  Hyperedges are clique-
    expanded with weight [w(e) / (|e| - 1)] per pair; passes tentatively
    swap the best unlocked pair until all vertices are locked, then roll
    back to the best prefix.  Pair swaps preserve vertex counts, so KL
    maintains an equal-cardinality (unit-area) bisection — the regime
    the paper notes older benchmarks were run in.  O(n^2) per pass:
    suitable for baselines and examples, not for production use. *)

val run :
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_partition.Bipartition.t ->
  Hypart_engine.Engine.Result.t
(** Improve an initial solution (counts on each side must differ by at
    most one; weights and the balance window are ignored) by passes
    until one finds no improving prefix, at most 20.  A fixed vertex is
    locked from the start of every pass, so it is never swapped and
    stays on whatever side [initial] gives it.  The result's [cut] is
    the hyperedge cut (not the clique-model cost); [legal] is
    {!Hypart_partition.Problem.is_legal}: whether the equal-cardinality
    bisection happens to satisfy the balance window, and every fixed
    vertex is on its side.  Stats: [passes], and
    [swaps] (every swap applied, rolled-back ones included).  The
    cancel hook is polled before every pass and before every row of a
    pair selection.  @raise Invalid_argument on an unequal start. *)

val run_random_start :
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_engine.Engine.Result.t
(** Random equal-cardinality start, then {!run}.  Fixed vertices start
    on their sides and free ones fill side 0 up to [n/2] in a random
    order, so with nothing fixed this is a uniformly random bisection.
    @raise Invalid_argument when more than half the vertices are fixed
    to one side (no equal-cardinality start keeps them). *)

val engine : Hypart_engine.Engine.t
(** [kl]: {!run} from the given initial solution, or
    {!run_random_start} without one. *)
