(** Direct k-way FM partitioning (after Sanchis, IEEE ToC 1993).

    The paper restricts its experiments to 2-way partitioners and names
    "the difficulty of multi-way partitioning" a fundamental gap; this
    module provides the direct generalization so that the recursive-
    bisection approach ({!Hypart_multilevel.Recursive_bisection}) has an
    in-repository comparator.

    Every free vertex contributes [k-1] candidate moves (one per target
    part), kept in a single gain-bucket structure keyed by cut
    reduction.  A pass greedily applies the best legal move, locks the
    vertex, updates the affected gains, and finally rolls back to the
    best prefix — exactly the FM discipline, lifted to k parts.

    A move refreshes every unlocked pin of every net the moved vertex
    touches, and each refresh recomputes that pin's [k-1] gains over all
    of its own nets: O(deg(v) · net size · k · deg(pin)) per move, fine
    for the moderate k (2..16) of VLSI use models on small instances,
    slow on large ones. *)

type result = {
  part_of : int array;  (** vertex -> part id in [0, k) *)
  cut : int;  (** {!Hypart_partition.Kway_objective.cut} of [part_of] *)
  legal : bool;
      (** every part weight lies in {!Hypart_partition.Kway_objective.window} *)
  stats : (string * float) list;
      (** [passes] (including the final non-improving one) and [moves]
          (including rolled-back ones), in that order; [[]] for
          recursive bisection *)
}
(** What every k-way partitioner returns ({!run}, [Ml_kway.run],
    [Recursive_bisection.run]): the twin of
    {!Hypart_engine.Engine.Result.t}. *)

val better : result -> result -> bool
(** [better a b]: legality first, then cut — the rule of
    {!Hypart_engine.Engine.Result.better}. *)

val run :
  ?max_passes:int ->
  ?tolerance:float ->
  k:int ->
  Hypart_rng.Rng.t ->
  Hypart_hypergraph.Hypergraph.t ->
  int array ->
  result
(** [run ~k rng h part_of] improves the given assignment (entries in
    [0, k)); a move must land both parts it touches in the window
    (default tolerance 0.10) or reduce their violation of it.  The
    input array is not mutated.  Scratch arrays come from the calling
    domain's k-way workspace (the analogue of {!Fm_workspace}), rebuilt
    only when [h] outgrows it or [k] differs.
    @raise Invalid_argument on a malformed assignment. *)

val reserve :
  k:int -> rng:Hypart_rng.Rng.t -> Hypart_hypergraph.Hypergraph.t -> unit
(** Make the calling domain's workspace fit [h] at [k] if it does
    not already — what a multilevel run does for its finest level
    before refining coarse levels first, so a cold domain allocates
    once per run rather than once per level. *)

val run_random_start :
  ?max_passes:int ->
  ?tolerance:float ->
  k:int ->
  Hypart_rng.Rng.t ->
  Hypart_hypergraph.Hypergraph.t ->
  result
(** Random balanced start, then {!run}. *)
