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

    Complexity per move is O(deg(v) · avg-net-size · k): fine for the
    moderate k (2..16) of VLSI use models, not for graph-clustering k. *)

type result = {
  part_of : int array;
  cut : int;  (** weighted count of nets spanning >= 2 parts *)
  legal : bool;
  passes : int;
  moves : int;
}

val run :
  ?max_passes:int ->
  ?tolerance:float ->
  k:int ->
  Hypart_rng.Rng.t ->
  Hypart_hypergraph.Hypergraph.t ->
  int array ->
  result
(** [run ~k rng h part_of] improves the given assignment (entries in
    [0, k)); each part's weight is constrained to
    [(1 ± tolerance) · total / k] (default tolerance 0.10).  The input
    array is not mutated.  Scratch arrays come from the calling
    domain's workspace for [k] (the k-way analogue of
    {!Fm_workspace}), grown only when [h] outgrows it.
    @raise Invalid_argument on a malformed assignment. *)

val reserve :
  k:int -> rng:Hypart_rng.Rng.t -> Hypart_hypergraph.Hypergraph.t -> unit
(** Grow the calling domain's workspace for [k] to fit [h] if it does
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
