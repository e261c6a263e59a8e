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

type result = {
  solution : Hypart_partition.Bipartition.t;
  cut : int;  (** hyperedge cut of the chosen split *)
  ratio_cut : float;  (** the optimized objective *)
  fiedler : float array;  (** the eigenvector (test/diagnostic hook) *)
  iterations : int;  (** power iterations used *)
}

val run :
  Hypart_rng.Rng.t ->
  Hypart_hypergraph.Hypergraph.t ->
  result
(** [run rng h] computes the EIG1 bipartition.  The power iteration
    stops at 200 iterations or on convergence, polling the cancel hook
    before each; the sweep skips prefixes holding less than 5% of the
    total vertex weight on either side.  @raise Invalid_argument on
    hypergraphs with fewer than two vertices. *)
