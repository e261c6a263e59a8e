(** Simulated-annealing bipartitioning — the classical "slow but
    general" baseline against which the move-based FM family was
    historically compared (Johnson et al.'s landmark SA bisection
    study; the paper's BSF-curve methodology §3.2 exists precisely to
    compare such heuristics with very different quality/runtime
    profiles fairly).

    Moves are single-vertex flips; the cost is the weighted cut plus a
    quadratic penalty on balance violation, so the walk can traverse
    mildly unbalanced states and still land legal.  Geometric cooling,
    Metropolis acceptance, best-legal-seen tracking. *)

val run :
  ?initial:Hypart_partition.Bipartition.t ->
  ?moves_per_vertex:int ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_engine.Engine.Result.t
(** [run rng problem] anneals from [initial] (copied, not mutated)
    when given, otherwise from a random legal start.
    [moves_per_vertex] (default 100) scales the move budget.  The
    starting temperature accepts an average sampled move with
    probability 0.5 and each temperature step cools it by 0.95.
    Returns the best legal solution encountered (falling back to the
    best overall when no legal state was seen), with the [accepted]
    and [attempted] move counts as its stats.  The cancel hook is
    polled at every temperature step. *)

val engine : Hypart_engine.Engine.t
(** [sa]: {!run} at the default move budget, from the given initial
    solution when provided, otherwise from a random legal start. *)
