(** The Fiduccia-Mattheyses pass engine (flat FM and CLIP).

    One engine implements both gain disciplines: classic FM keys moves
    by their current actual gain; CLIP (Dutt & Deng) keys them by
    cumulative delta gain, starting every pass with all moves in the
    zero bucket ordered by initial gain.  Every implicit decision of
    {!Fm_config} is honoured.

    The engine maintains the cut incrementally; the test-suite
    cross-checks the incremental value against
    {!Hypart_partition.Bipartition.cut} recomputed from scratch. *)

type stats = {
  passes : int;  (** passes executed (including the final, non-improving one) *)
  moves : int;  (** moves applied across all passes, including rolled-back ones *)
  empty_passes : int;  (** passes that made no move at all — CLIP corking at its worst *)
  corking_events : int;
      (** selections that found the head of a highest-gain bucket
          illegal (§2.3's corking diagnostic) *)
  zero_delta_updates : int;
      (** neighbour updates with zero delta gain (repositioned under
          [All_delta_gain], skipped under [Nonzero_only]) *)
}

type result = {
  solution : Hypart_partition.Bipartition.t;
  cut : int;  (** cut of [solution] *)
  legal : bool;  (** whether [solution] satisfies the balance constraint *)
  stats : stats;
}

val add_stats : stats -> stats -> stats
(** Field-wise sum: the stats of two runs counted as one, as a
    multilevel run counts every FM run it makes. *)

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
  result
(** [run rng problem initial] improves [initial] by repeated FM passes
    until a pass fails to improve the best legal cut (or
    [config.max_passes] is reached).  The input solution is not
    mutated.  [rng] is used only for [Random] bucket insertion.

    Scratch state comes from the calling domain's {!Fm_workspace}, so
    a run allocates no O(V+E) arrays unless the instance outgrows it;
    the result is the same as on a freshly spawned domain. *)

val run_random_start :
  ?config:Fm_config.t ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  result
(** Generate a {!Hypart_partition.Initial.random} solution and [run].
    Multistart protocols run through {!Hypart_engine.Engine.multistart}
    over {!Fm_engines}. *)
