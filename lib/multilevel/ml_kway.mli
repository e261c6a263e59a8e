(** Multilevel direct k-way partitioning (hMetis-Kway style).

    Coarsen the hypergraph, compute an initial k-way partitioning at
    the coarsest level (best of several {!Hypart_fm.Kway_fm} random
    starts), then project and refine with direct k-way FM at every
    level.  Complements {!Recursive_bisection} (which applies 2-way
    multilevel cuts recursively): direct refinement sees all k parts at
    once, recursive bisection cannot revisit earlier cuts. *)

val run :
  ?tolerance:float ->
  k:int ->
  Hypart_rng.Rng.t ->
  Hypart_hypergraph.Hypergraph.t ->
  Hypart_fm.Kway_fm.result
(** [run ~k rng h] partitions into [k] parts held to the k-way window
    (default tolerance 0.10).  Edge coarsening stops near [30 k]
    vertices; the best of 10 random k-way FM starts there
    ({!Hypart_fm.Kway_fm.better}) is refined with at most 4 passes per
    level.  The result is the finest level's record, with [stats]
    ([passes], [moves]) summed over the whole run: every coarsest-level
    start and every level's refinement
    ({!Hypart_engine.Engine.Result.add_stats}), as
    {!Ml_partitioner.run} counts its FM runs.
    The coarsest-level starts and every refinement borrow the calling
    domain's k-way FM workspace.
    @raise Invalid_argument when [k < 2] or [k > num_vertices]. *)
