(** Simulated annealing as a registry engine ([sa]).  Anneals from the
    given initial solution when provided, otherwise from a random legal
    start. *)

val sa : Hypart_engine.Engine.t
