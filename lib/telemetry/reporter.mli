(** Domain-safe [Logs] reporter.

    The default [Logs.format_reporter] is not safe under concurrent
    domains: two domains formatting at once interleave fragments of
    each other's lines.  This reporter takes a process-wide mutex for
    the duration of each message and tags every line with the
    recording domain id and the source name. *)

val setup :
  ?app:Format.formatter ->
  ?dst:Format.formatter ->
  ?level:Logs.level option ->
  unit ->
  unit
(** Install the reporter and set the global level (default
    [Some Warning]). *)
