(** The Fiduccia-Mattheyses pass engine (flat FM and CLIP).

    One engine implements both gain disciplines: classic FM keys moves
    by their current actual gain; CLIP (Dutt & Deng) keys them by
    cumulative delta gain, starting every pass with all moves in the
    zero bucket ordered by initial gain.  Every implicit decision of
    {!Fm_config} is honoured.

    The engine maintains the cut incrementally; the test-suite
    cross-checks the incremental value against
    {!Hypart_partition.Bipartition.cut} recomputed from scratch. *)

(* kept: the reference switch the fast-path property compares against *)
val zero_delta_fast_path : bool ref
(** Test hook (default [true]): when set to [false], [run] skips the
    all-deltas-zero shortcut in its neighbour-update loop and scans
    every pin of every touched net.  Results must be bit-identical
    either way under both update policies — property-tested. *)

val run :
  ?config:Fm_config.t ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_partition.Bipartition.t ->
  Hypart_engine.Engine.Result.t
(** [run rng problem initial] improves [initial] by repeated FM passes
    until a pass fails to improve the best legal cut (or
    [config.max_passes] is reached).  The input solution is not
    mutated.  [rng] is used only for [Random] bucket insertion.

    The result's [stats] are [passes] (executed, including the final
    non-improving one), [moves] (applied across all passes, including
    rolled-back ones), [empty_passes] (passes that made no move: CLIP
    corking at its worst), [corking_events] (selections that found the
    head of a highest-gain bucket illegal, §2.3's corking diagnostic)
    and [zero_delta_updates] (neighbour updates with zero delta gain:
    repositioned under [All_delta_gain], skipped under
    [Nonzero_only]), in that order.

    Scratch state comes from the calling domain's {!Fm_workspace}, so
    a run allocates no O(V+E) arrays unless the instance outgrows it;
    the result is the same as on a freshly spawned domain. *)

val run_random_start :
  ?config:Fm_config.t ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_engine.Engine.Result.t
(** Generate a {!Hypart_partition.Initial.random} solution and [run].
    Multistart protocols run through {!Hypart_engine.Engine.multistart}
    over {!Fm_engines}. *)
