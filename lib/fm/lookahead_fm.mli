(** FM with Krishnamurthy look-ahead gains (IEEE ToC 1984, the paper's
    reference [30]).

    Classic FM breaks ties among maximum-gain moves arbitrarily — one
    of the implicit decisions the paper shows to matter.  Krishnamurthy
    replaced the scalar gain with a {e gain vector} compared
    lexicographically: the r-th component counts nets that would become
    removable in r further moves, via {e binding numbers}.  For a net
    [e] and side [s], the binding number [B_s(e)] is the number of free
    cells of [e] on [s], or infinity if any locked cell of [e] sits on
    [s]; the r-th gain of moving [v] from [A] to [B] is

    [sum over e of w(e) ((B_A(e) = r) - (B_B(e) = r - 1))]

    whose first component is exactly the FM gain.  Components are
    saturated at ±31 and Horner-packed into a single bucket key, so the
    standard gain-bucket machinery applies unchanged.

    Neighbour gains are recomputed from scratch after each move
    (binding numbers are not amenable to cheap deltas), so a move costs
    O(deg² · net size) — this engine is a quality refinement for flat
    partitioning and coarse multilevel levels, not a drop-in
    replacement for the O(pins) classic engine. *)

val run :
  ?lookahead:int ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_partition.Bipartition.t ->
  Hypart_engine.Engine.Result.t
(** [run rng problem initial] improves [initial] by passes until one
    fails to improve the best legal cut (at most 50); [lookahead] is
    the gain-vector depth (1 = classic FM ordering, default 2, max 3).
    The stats are [passes] and [moves].  The cancel hook is polled
    before every pass.
    @raise Invalid_argument for depths outside [1, 3]. *)

val run_random_start :
  ?lookahead:int ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_engine.Engine.Result.t
