(** Routing-congestion estimation for placements (RUDY).

    The §2.1 use model is "timing- and routing congestion-driven"; the
    standard fast congestion estimate is RUDY (Rectangular Uniform wire
    DensitY, Spindler & Johannes): each net spreads a wiring demand of
    [w(e) · (dx + dy)] uniformly over its bounding box, and the chip is
    binned into a grid whose per-bin totals approximate routing
    demand.  Peak and average bin demand summarize a placement's
    routability. *)

type t = {
  bins : int;  (** grid is [bins x bins] *)
  demand : float array array;  (** [demand.(y).(x)] *)
}

val rudy :
  ?bins:int ->
  Hypart_hypergraph.Hypergraph.t ->
  Topdown.placement ->
  t
(** Compute the RUDY map ([bins] defaults to 16).
    @raise Invalid_argument when [bins < 1]. *)

val peak : t -> float
val average : t -> float

