(** Detailed placement: row legalization and stochastic hill-climbing.

    The paper's use model (§2.1): a placement tool derives a "coarse
    placement" by recursive min-cut bisection, "which is then refined
    into a detailed placement by stochastic hill-climbing search"; its
    footnote 8 notes that the "discrete nature of cell rows" requires
    snapping into row-compatible positions.  This module provides both
    steps on top of {!Topdown}:

    - {!legalize} snaps a coarse placement onto standard-cell rows:
      cells are assigned to the nearest row (capacity-limited by total
      cell width per row) and packed left-to-right in x-order;
    - {!anneal} improves half-perimeter wirelength by simulated
      annealing over pairwise cell swaps (within and across rows), with
      a geometric cooling schedule.

    The row model is slot-based: each row holds equally-pitched slots
    and every cell occupies exactly one, so swaps always preserve
    legality.  Macros therefore occupy a single slot — area-accurate
    widths are traded for O(degree) move evaluation, the standard
    teaching abstraction of TimberWolf-style annealers; the coarse
    placer ({!Topdown}) remains the area-accurate stage. *)

type rows = {
  num_rows : int;
  row_height : float;
  row_of : int array;  (** row index per cell *)
}

type legalized = {
  placement : Topdown.placement;
  rows : rows;
}

val legalize :
  ?num_rows:int ->
  Hypart_hypergraph.Hypergraph.t ->
  Topdown.placement ->
  legalized
(** Snap to rows: cells are distributed over rows by y-order (equal
    count per row) and packed into slots in x-order.  [num_rows]
    defaults to about [sqrt] of the cell count (square-ish aspect). *)

type anneal_stats = {
  initial_hpwl : float;
  final_hpwl : float;
  accepted : int;
  attempted : int;
}

val anneal :
  ?moves_per_cell:int ->
  Hypart_rng.Rng.t ->
  Hypart_hypergraph.Hypergraph.t ->
  legalized ->
  legalized * anneal_stats
(** Simulated-annealing refinement.  [moves_per_cell] (default 50)
    scales the move budget.  The starting temperature accepts an
    average sampled swap with probability 0.5, and each temperature
    step cools it by 0.95.  Never returns
    a placement with a worse HPWL than its input (the best-seen
    configuration is kept). *)
