(** Registry glue: the memetic campaign as an ordinary engine.

    [memetic_ml] runs a compact in-memory campaign ({!Evolve.run} with
    no store) over [mlclip] evaluations, so the CLI, benches and the
    Tables 4–5 harness can compare it like any other heuristic.  An
    [initial] solution, when given, is admitted into the starting
    population. *)

val register : unit -> unit
(** Idempotent. *)
