(** Vertex matching for one coarsening level.

    Three schemes share one neighbour-matching loop: vertices are
    visited in random order and each unclustered vertex joins the
    neighbour of the highest connectivity score, subject to a
    cluster-weight cap, fixed-side compatibility, and (for V-cycling) a
    same-part restriction.  A vertex with no such neighbour becomes a
    singleton cluster.  The scheme decides only the net's weight in the
    score and whether an already-clustered neighbour may be chosen. *)

(** Clustering scheme for one coarsening level:
    - [Edge_coarsening] (hMetis "EC"): pair matching by connectivity
      [sum over shared nets of w(e) / (|e| - 1)] — discounts large nets;
    - [Heavy_edge]: pair matching by plain sum of shared net weights;
    - [First_choice] (hMetis-1.5 "FC"): like [Edge_coarsening], but the
      chosen neighbour may already be clustered — clusters grow beyond
      pairs (subject to the weight cap), giving faster, more aggressive
      coarsening;
    - [Hyperedge_coarsening] (hMetis "HEC"): visit nets in increasing
      size order; a net none of whose pins are clustered yet is
      contracted whole.  Leftover vertices become singletons. *)
type scheme =
  | Edge_coarsening
  | Heavy_edge
  | First_choice
  | Hyperedge_coarsening

val compute :
  scheme:scheme ->
  rng:Hypart_rng.Rng.t ->
  max_cluster_weight:int ->
  fixed:int array ->
  ?restrict_to_parts:int array ->
  Hypart_hypergraph.Hypergraph.t ->
  int array * int
(** [compute ~scheme ~rng ~max_cluster_weight ~fixed h] returns
    [(cluster_of, num_clusters)].  A vertex only joins a neighbour (or,
    under [First_choice], the neighbour's cluster) when the combined
    weight does not exceed [max_cluster_weight], no two of its vertices
    are fixed to different sides, and — when [restrict_to_parts] is
    given — all lie in the same part.  Nets
    larger than 64 pins are ignored when scoring,
    as is standard in multilevel implementations. *)
