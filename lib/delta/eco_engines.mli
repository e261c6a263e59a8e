(** The warm-start engine family.

    [eco_fm] runs strong CLIP FM from the supplied initial solution —
    the boundary-localized refinement step of the ECO path (the
    locality itself travels in the problem's [fixed] array; the engine
    just refines).  [eco_ml] V-cycles the initial solution through the
    ML CLIP hierarchy instead (never worse, costlier, stronger).  Both
    degrade to their from-scratch equivalents when no initial solution
    is given, so they remain well-defined registry citizens. *)

val eco_fm : Hypart_engine.Engine.t

(* kept: the engine value the kernel digest test pins *)
val eco_ml : Hypart_engine.Engine.t

val register : unit -> unit
(** Idempotent registration of both engines. *)
