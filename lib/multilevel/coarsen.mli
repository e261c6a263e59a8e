(** Construction of the multilevel hierarchy. *)

type level = {
  coarse : Hypart_hypergraph.Hypergraph.t;
  cluster_of : int array;  (** fine vertex -> coarse vertex *)
  coarse_fixed : int array;  (** propagated fixed sides, [-1] = free *)
}

type hierarchy = {
  problem : Hypart_partition.Problem.t;  (** the finest-level problem *)
  levels : level list;  (** fine-to-coarse order *)
}

val coarsest :
  hierarchy -> Hypart_hypergraph.Hypergraph.t * int array
(** Hypergraph and fixed array of the coarsest level (the original
    instance when [levels] is empty). *)

val build :
  scheme:Matching.scheme ->
  rng:Hypart_rng.Rng.t ->
  coarsest_size:int ->
  max_cluster_weight:int ->
  ?restrict_to_parts:int array ->
  Hypart_partition.Problem.t ->
  hierarchy
(** Repeat match-and-contract until the vertex count drops to
    [coarsest_size] or a level shrinks by less than 10% (stagnation —
    further levels would waste time without helping refinement).  When
    [restrict_to_parts] is given (V-cycling), clusters never straddle
    the given bipartition, so the partition projects exactly onto every
    level of the hierarchy.  The cancel hook is polled before every
    level. *)

val refinement_steps :
  hierarchy -> (Hypart_hypergraph.Hypergraph.t * int array * level) list
(** The coarse-to-fine walk every multilevel engine refines along:
    one [(fine, fine_fixed, level)] per level, coarsest first, where
    [fine] and [fine_fixed] are the hypergraph and fixed array that
    [level] was contracted from. *)

val project :
  level -> Hypart_partition.Bipartition.t -> fine:Hypart_hypergraph.Hypergraph.t ->
  Hypart_partition.Bipartition.t
(** Push a coarse solution one level down: every fine vertex inherits
    its cluster's side. *)
