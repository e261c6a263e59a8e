(** Monotonic clock (CLOCK_MONOTONIC via bechamel's stub): immune to
    wall-clock adjustments, suitable for span timestamps and durations. *)

val now_us : unit -> float
val now_s : unit -> float
