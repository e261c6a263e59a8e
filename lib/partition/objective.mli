(** Partitioning objective functions.

    Cut size is the standard objective (and the one the FM engine
    optimizes); the others are the alternatives the paper's introduction
    cites — ratio cut [Wei & Cheng 1989], scaled cost [Chan, Schlag &
    Zien 1994] and absorption [Sun & Sechen 1993] — provided for
    evaluation and for the example applications. *)

type t = Cut | Ratio_cut | Scaled_cost | Absorption

val name : t -> string

val evaluate : t -> Hypart_hypergraph.Hypergraph.t -> Bipartition.t -> float
(** Evaluate an objective; lower is better for [Cut], [Ratio_cut] and
    [Scaled_cost], higher is better for [Absorption] (see {!direction}). *)

(* kept: which way [evaluate]'s value improves, per objective *)
val direction : t -> [ `Minimize | `Maximize ]

val cut : Hypart_hypergraph.Hypergraph.t -> Bipartition.t -> int
(** Weighted cut size (same as {!Bipartition.cut}). *)

val ratio_cut : Hypart_hypergraph.Hypergraph.t -> Bipartition.t -> float
(** [cut / (w(P0) * w(P1))], scaled by the squared half-total so that
    perfectly balanced solutions have ratio cut equal to the cut. *)
