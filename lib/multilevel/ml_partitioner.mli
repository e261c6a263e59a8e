(** The multilevel FM partitioner (the repository's hMetis-1.5 stand-in).

    Coarsen with edge coarsening to ~[coarsest_size] vertices, compute
    several random+FM initial partitions of the coarsest hypergraph,
    keep the best, then uncoarsen level by level, refining with the
    configured FM engine (ML LIFO FM or ML CLIP FM, per
    [config.fm.engine]).  Optional V-cycles re-coarsen restricted to the
    current partition and refine again (Karypis et al.; used by Tables
    4-5's protocol, which V-cycles the best of N starts). *)

type config = {
  fm : Hypart_fm.Fm_config.t;  (** refinement engine and its knobs *)
  scheme : Matching.scheme;
  coarsest_size : int;
  coarsest_starts : int;  (** initial-partition attempts at the coarsest level *)
  refine_passes : int;  (** FM pass cap per level during refinement *)
  boundary_refinement : bool;
      (** restrict refinement to boundary vertices (hMetis-style
          speed-up); the coarsest-level initial partitioning always
          uses the full vertex set *)
  vcycles : int;  (** V-cycles after the initial uncoarsening *)
}

val default : config
(** Edge coarsening to 120 vertices, 10 coarsest starts, 4 refinement
    passes per level, strong LIFO FM refinement, no V-cycles. *)

val ml_lifo : config
(** "ML LIFO FM" of Table 1. *)

val ml_clip : config
(** "ML CLIP FM" of Table 1. *)

val hmetis_like : config
(** ML CLIP with 2 V-cycles: the configuration of the [hmetis] engine.
    Tables 4–5 do not run it; they run [ml_clip] starts plus one
    V-cycle of the best. *)

val cluster_weight_cap : Hypart_partition.Problem.t -> int -> int
(** [cluster_weight_cap problem coarsest_size] is the heaviest cluster
    coarsening may form: 45% of the balance slack, or a quarter of the
    average coarsest-level vertex weight when that is larger. *)

val run :
  ?config:config ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_fm.Fm.result
(** One multilevel start.  Its stats sum every FM run it makes: each
    coarsest-level start, each level's refinement and each V-cycle's.
    Every refinement at every level and V-cycle borrows the calling
    domain's {!Hypart_fm.Fm_workspace}, so a run performs no per-level
    FM array allocation.  Multistart protocols
    (Tables 4-5: V-cycle the best of N starts) run through
    {!Hypart_engine.Engine.multistart} over {!Ml_engines}. *)

val vcycle :
  ?config:config ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_partition.Bipartition.t ->
  Hypart_fm.Fm.result
(** One V-cycle: re-coarsen restricted to the given solution's parts
    and refine it back up, with the stats of every level's refinement.
    Never returns a worse legal cut. *)

val recombine :
  ?config:config ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_partition.Bipartition.t ->
  Hypart_partition.Bipartition.t ->
  Hypart_fm.Fm.result
(** Cut-respecting recombination of two parent partitions (memetic
    multilevel): coarsen restricted to the overlay of both parents'
    parts — so no cluster ever straddles either parent's cut — project
    the better parent onto the coarsest hypergraph (well-defined per
    cluster, preserving its cut exactly), then refine back up (the
    stats sum every level's refinement).  Never
    returns a result worse than the better parent (legality first,
    then cut). *)
