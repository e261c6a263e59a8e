(** k-way partitioning by recursive min-cut bisection.

    The paper restricts its study to 2-way partitioners, but the use
    model it motivates (top-down placement, and hMetis's own k-way
    mode) applies them recursively.  This module cuts the vertex set
    into [k] parts by repeatedly bisecting the (induced) subhypergraph
    of each part with the multilevel engine, splitting the part-count
    as evenly as possible (so k need not be a power of two) and the
    balance target proportionally. *)

type result = {
  part_of : int array;  (** vertex -> part id in [0, k) *)
  cut : int;
      (** weighted k-way cut ({!Hypart_partition.Kway_objective.cut}) *)
  part_weights : int array;
}

val run :
  ?tolerance:float ->
  k:int ->
  Hypart_rng.Rng.t ->
  Hypart_hypergraph.Hypergraph.t ->
  result
(** [run ~k rng h] produces a k-way partitioning.  [tolerance] (default
    0.10) bounds each bisection; the final part weights are within
    roughly [(1 + tolerance)^ceil(log2 k)] of [total / k].
    @raise Invalid_argument when [k < 1] or [k > num_vertices]. *)
