(** Balance constraints for bipartitioning.

    The paper's convention: a tolerance of 2% constrains each partition
    to hold between 49% and 51% of the total cell area; 10% means 45% to
    55%.  For a bipartition with total weight [W] and tolerance [t],
    each part must weigh within [[(0.5 - t/2) W, (0.5 + t/2) W]];
    bounds are rounded outward so that exact bisection of an odd total
    remains feasible. *)

type t = private {
  lower : int;  (** minimum legal part-0 weight *)
  upper : int;  (** maximum legal part-0 weight *)
  total : int;
  tolerance : float;
}

val valid_tolerance : float -> bool
(** Whether a tolerance lies in [[0, 1)], the range {!of_tolerance} and
    {!of_fraction} accept.  NaN does not.  Every front end (the CLI's
    [--tol], the daemon's [tol=]) validates through this predicate. *)

val of_tolerance : total:int -> tolerance:float -> t
(** Symmetric bounds: part 0 within [[(0.5 - t/2) W, (0.5 + t/2) W]]
    (and part 1 by complement).  Bounds are complements of each other
    ([upper = total - lower]), so exact bisection of an odd total is
    always feasible.  @raise Invalid_argument if [tolerance] is outside
    [0, 1) or [total] is non-positive. *)

val of_fraction : total:int -> fraction:float -> tolerance:float -> t
(** Asymmetric bounds for uneven splits (recursive bisection into an
    odd number of parts): part 0 within
    [[(f - t/2) W, (f + t/2) W]], clamped to [[0, W]].
    @raise Invalid_argument if [fraction] is outside (0, 1), or as
    {!of_tolerance} does. *)

val is_legal : t -> part0_weight:int -> bool
(** Part 0 within bounds (part 1 is bounded by complement). *)

val slack : t -> int
(** [upper - lower]: the width of the legal window.  A cell heavier than
    this can never move in a legal solution — the corking threshold. *)

val violation : t -> part0_weight:int -> int
(** Distance to the legal window (0 when legal).  Used to pick the
    "furthest from violating" pass-best tie-break and to rank imbalanced
    intermediate solutions. *)

val pp : Format.formatter -> t -> unit
