(** Spectral ratio-cut bipartitioning (EIG1; Wei & Cheng's ratio-cut
    objective with Hagen & Kahng's eigenvector relaxation).

    The hypergraph is clique-expanded; the Fiedler vector (second
    eigenvector of the graph Laplacian) is computed by deflated power
    iteration; vertices are sorted by their Fiedler coordinate and
    every split point of the linear ordering is swept, keeping the one
    with the best ratio cut.  No balance constraint: the ratio-cut
    objective itself discourages lopsided splits — which is exactly the
    formulation difference the paper's intro lists against cut size.

    This is one of the non-FM baselines of the partitioning literature
    the paper's experiments sit in, provided for contrast in examples
    and benches.  Dense-matrix-free: O(iterations . edges). *)

val run :
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_engine.Engine.Result.t
(** [run rng problem] computes the EIG1 bipartition of the problem's
    hypergraph.  The power iteration stops at 200 iterations or on
    convergence, polling the cancel hook before each; the sweep skips
    prefixes holding less than 5% of the total vertex weight on either
    side.  The balance window and fixed vertices play no part, by
    design: like vertex area, they do not enter the Fiedler vector, so
    a fixed vertex can land on either side.  [legal] is
    {!Hypart_partition.Problem.is_legal}: whether the chosen split
    happens to satisfy the window and put every fixed vertex on its
    side.  Stats:
    [ratio_cut] (the optimized objective) and [iterations] (power
    iterations used).  @raise Invalid_argument on hypergraphs with
    fewer than two vertices. *)

(* kept: the eigenvector itself is checked directly by its tests *)
val fiedler : Hypart_rng.Rng.t -> Hypart_hypergraph.Hypergraph.t -> float array
(** The Fiedler vector {!run} sweeps: [fiedler (Rng.create s) h] is the
    vector by which [run (Rng.create s)] orders the vertices of [h]. *)

val engine : Hypart_engine.Engine.t
(** [spectral]: {!run}; any initial solution is ignored (the Fiedler
    vector does not take hints). *)
