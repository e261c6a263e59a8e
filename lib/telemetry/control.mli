(** Global on/off switches for telemetry collection.

    Two switches: one for metrics ({!Metrics} recording and the
    engines' [is_enabled]-gated counters), one for spans ({!Trace}).
    Both default to off so instrumented hot paths cost one atomic load
    per recording site.  Spans accumulate in per-domain buffers until a
    trace is written, so a long-lived process that only serves
    [/metrics] turns on metrics alone.  Reading and exporting snapshots
    always works regardless of the switches. *)

val enable : unit -> unit
(** Turn on metrics and spans. *)

val enable_metrics : unit -> unit
(** Turn on metrics; spans keep their state. *)

val disable : unit -> unit
(** Turn off metrics and spans. *)

val is_enabled : unit -> bool
(** Whether metrics are recorded. *)

val spans_enabled : unit -> bool
(** Whether spans are recorded. *)

val with_enabled : (unit -> 'a) -> 'a
(** Run [f] with metrics and spans enabled, restoring both previous
    states afterwards (exception-safe).  Intended for tests. *)
