(** Top-down global placement by recursive min-cut bisection — the
    driving application of the paper (§2.1): "a modern top-down
    standard-cell placement tool might perform ... recursive min-cut
    bisection of a cell-level netlist to obtain a coarse placement".

    The placer recursively bisects regions of the chip, alternating the
    cut direction with the region's aspect ratio, and partitions each
    region's cells with the configured engine.  Nets that cross a
    region boundary contribute {e propagated terminals} (Dunlop &
    Kernighan; Suaris & Kedem): a fixed vertex on the side of the
    region nearer the net's external pins — which is why fixed-vertex
    support in the partitioner is essential to the use model. *)

type config = {
  leaf_cells : int;
      (** stop bisecting below this many cells; default 8 *)
  tolerance : float;  (** balance tolerance per bisection; default 0.10 *)
  use_multilevel : bool;
      (** multilevel engine above [ml_threshold] cells, flat FM below *)
  ml_threshold : int;
  fm : Hypart_fm.Fm_config.t;  (** refinement engine *)
}

val default_config : config

type placement = {
  x : float array;
  y : float array;
  width : float;
  height : float;
}
(** Cell centre coordinates within [[0, width] x [0, height]]. *)

val place :
  ?config:config ->
  Hypart_rng.Rng.t ->
  Hypart_hypergraph.Hypergraph.t ->
  placement
(** Place all cells of the hypergraph in a square chip whose area is
    proportional to the total cell area. *)

type box = { x0 : float; x1 : float; y0 : float; y1 : float }
(** A net's bounding box: its pins span [[x0, x1] x [y0, y1]]. *)

val net_box : Hypart_hypergraph.Hypergraph.t -> placement -> int -> box
(** [net_box h pl e]: the bounding box of net [e]'s pins. *)

val half_perimeter : box -> float
(** [(x1 - x0) + (y1 - y0)]: a net's wirelength before its weight. *)

val hpwl : Hypart_hypergraph.Hypergraph.t -> placement -> float
(** Half-perimeter wirelength: for each net, (x span + y span), summed
    weighted by net weight — the standard coarse-placement quality
    metric. *)

val random_placement :
  Hypart_rng.Rng.t -> Hypart_hypergraph.Hypergraph.t -> placement
(** Uniform random placement in the same chip outline (the quality
    baseline placements are compared against). *)
