(** Flight recorder: bounded, crash-safe JSONL lifecycle-event log.

    One flat JSON object per line with a monotonic [ts_us] (same clock
    as {!Trace} spans) and an [event] name; remaining fields are
    caller-supplied, and the recording domain's {!Trace.context} is
    merged in automatically so engine-level events carry
    [request_id]/[job_id] on the serving path.  Lines go through the
    shared {!Jsonl} log: each is flushed as it is written, so a crash
    loses at most the partial last line, and opening a log whose last
    line a crash left unterminated terminates it first.

    Emission past [max_events] (and after a write error) is dropped and
    counted; totals are published as the [telemetry.events_logged] /
    [telemetry.events_dropped] probe gauges. *)

type t

val open_log : ?max_events:int -> string -> t
(** Open (append mode, created with its directory if missing) an event
    log at [path], keeping at most [max_events] events (default
    100_000, about 10 MB at typical line sizes). *)

val emit : t -> string -> (string * Jsonl.value) list -> unit
(** [emit t event fields] appends one line.  Thread/domain-safe. *)

val close : t -> unit
(** Flush and close; uninstalls [t] if it is the global sink.  Later
    emits to [t] are counted as dropped. *)

val path : t -> string

(* kept: the count the flight-recorder tests check against the file *)
val written : t -> int
val dropped : t -> int

(** {2 Process-global sink}

    [record] is the hot-path entry point used by library code: one
    atomic load when no sink is installed, so call sites need no
    gating. *)

val install : t -> unit
val installed : unit -> t option
val enabled : unit -> bool
val record : string -> (string * Jsonl.value) list -> unit
