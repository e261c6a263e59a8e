(** Kernighan-Lin as a registry engine ([kl]).  KL maintains an
    equal-cardinality bisection regardless of the problem's balance
    window, so the result's [legal] flag reports whether that bisection
    happens to satisfy the constraint.  An initial solution must have
    side cardinalities differing by at most one ({!Kl.run} raises
    otherwise). *)

val kl : Hypart_engine.Engine.t
