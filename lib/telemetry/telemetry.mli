(** Telemetry facade: the collection switches plus phase-time summaries
    derived from the span tracer.

    See {!Metrics} for the metrics registry, {!Trace} for span tracing
    and Chrome trace export, and {!Reporter} for the domain-safe
    [Logs] reporter.  docs/OBSERVABILITY.md documents the metric names
    and span taxonomy used across the engines. *)

val enable : unit -> unit
(** Turn on metrics and spans ({!Control.enable}). *)

val enable_metrics : unit -> unit
(** Turn on metrics only ({!Control.enable_metrics}). *)

val disable : unit -> unit
val is_enabled : unit -> bool
val with_enabled : (unit -> 'a) -> 'a

val reset : unit -> unit
(** Clear all metrics and spans. *)

type phase = {
  name : string;
  calls : int;
  total_us : float;
  mean_us : float;
  max_us : float;
}

(* kept: the data behind --profile, tested without the table *)
val phase_summary : unit -> phase list
(** Spans aggregated by name, sorted by total time descending — the
    data behind the CLI's [--profile] table. *)

val pp_phase_summary : Format.formatter -> unit -> unit
