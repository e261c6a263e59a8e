(** Non-dominated frontiers of (cost, runtime) performance points.

    The paper §3.2: point A is {e dominated} by point B iff B has both
    lower cost and lower runtime ("no one would ever choose to run
    configuration A over configuration B"); the non-dominated frontier
    is the Pareto set, from which the reader sees which heuristic is
    preferable in each runtime regime. *)

type 'a point = { label : 'a; cost : float; runtime : float }

(* kept: the relation the frontier is defined by; tested directly *)
val dominates : 'a point -> 'a point -> bool
(** [dominates b a]: strictly lower cost {e and} strictly lower
    runtime. *)

val frontier : 'a point list -> 'a point list
(** The non-dominated subset, sorted by increasing runtime (and
    decreasing cost).  Duplicate performance points are all kept (none
    dominates the other under the strict definition). *)
