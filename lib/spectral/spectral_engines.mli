(** EIG1 as a registry engine ([spectral]).  The ratio-cut objective
    replaces the balance constraint, so the result's [legal] flag
    reports whether the sweep's split happens to satisfy the problem's
    window; any initial solution is ignored (the Fiedler vector does
    not take hints). *)

val register : unit -> unit
(** Add [spectral] to the registry (idempotent). *)
