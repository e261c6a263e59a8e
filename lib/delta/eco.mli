(** Warm-start (ECO) repartitioning over a patched instance.

    The prior partition is projected through {!Patch.t.vertex_map};
    cells the delta added (and cells orphaned by it) are placed by a
    balance-aware greedy that maximizes placed-pin affinity, and a
    gain-aware greedy rebalance legalizes the projection when the
    delta's weight changes pushed it past tolerance (an engine started
    from an illegal solution legalizes at a much higher cut cost).
    Refinement is then boundary-localized: vertices within hyperedge
    distance [radius] of the delta's touched set (high-fanout nets are
    never expanded through) form a subproblem together with two fixed
    terminal vertices that carry the frozen sides' full weight, so the
    subproblem's balance constraint is exactly the global one and the
    engine's work scales with the perturbation, not the instance.  The
    refined region is spliced back into the projection.  A fallback
    guard runs the from-scratch engine instead when the touched
    fraction exceeds [fallback_fraction] — or when the spliced warm
    solution comes back illegal (a delta can shift enough weight that
    no legal solution keeps the frozen sides).

    Warm runs are single seeded engine invocations — no multistart, no
    fan-out — so the result is bit-identical for a fixed seed at any
    domain count, by construction. *)

type config = {
  radius : int;  (** hyperedge-distance localization radius *)
  fallback_fraction : float;
      (** touched fraction above which from-scratch wins outright *)
  tolerance : float;  (** balance tolerance of the patched problem *)
}

val default_config : config
(** radius 1, fallback fraction 0.25, tolerance 0.02. *)

val project : Patch.t -> prior:int array -> int array
(** Project a prior assignment (length {!Patch.t.num_base_vertices})
    onto the patched instance: surviving cells keep their side; new
    cells are placed in decreasing weight order (deterministic id
    tie-break) on the side with the larger placed-pin affinity unless
    that overflows the average-weight target, in which case the lighter
    side takes them.  @raise Invalid_argument on a length mismatch. *)

val localize : Patch.t -> radius:int -> assignment:int array -> int array
(** The [fixed] array of the boundary-localized problem: [-1] (free)
    for every vertex within [radius] hyperedge hops of
    {!Patch.t.touched}, the assignment's side for everything else. *)

type mode = Warm | Scratch

type outcome = {
  result : Hypart_engine.Engine.Result.t;
  seconds : float;  (** CPU seconds of the engine run *)
  mode : mode;
  free_vertices : int;  (** free set size of the localized problem *)
  projected_cut : int;  (** cut of the projected start, before refinement *)
}

val run :
  ?config:config ->
  engine:Hypart_engine.Engine.t ->
  scratch:Hypart_engine.Engine.t ->
  seed:int ->
  prior:int array ->
  Patch.t ->
  outcome
(** Warm-start [engine] on the patched instance from [prior], falling
    back to [scratch] per the guard above.  Emits [eco.warm_runs] /
    [eco.fallback_runs] counters and the [eco.free_fraction] gauge, and
    a warm run traces its phases as [eco.localize], [eco.extract],
    [eco.refine] and [eco.splice] spans. *)
