(** k-way partitioning by recursive min-cut bisection.

    The paper restricts its study to 2-way partitioners, but the use
    model it motivates (top-down placement, and hMetis's own k-way
    mode) applies them recursively.  This module cuts the vertex set
    into [k] parts by repeatedly bisecting the (induced) subhypergraph
    of each part with the multilevel engine, splitting the part-count
    as evenly as possible (so k need not be a power of two) and the
    balance target proportionally. *)

val run :
  ?tolerance:float ->
  k:int ->
  Hypart_rng.Rng.t ->
  Hypart_hypergraph.Hypergraph.t ->
  Hypart_fm.Kway_fm.result
(** [run ~k rng h] produces a k-way partitioning ([stats = []]).
    [tolerance] (default 0.10) bounds each bisection, so the final part
    weights are only within roughly [(1 + tolerance)^ceil(log2 k)] of
    [total / k]; [legal] judges them by the k-way window at [tolerance]
    that direct k-way FM is held to, so it is often [false].
    @raise Invalid_argument when [k < 1] or [k > num_vertices]. *)
