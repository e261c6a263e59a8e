(** Span tracer: nestable begin/end spans on a monotonic clock, with
    per-domain buffers and Chrome [trace_event] JSON export.

    Spans nest per domain: [begin_span] pushes onto the recording
    domain's stack, [end_span] pops and records a completed event.  An
    [end_span] whose name does not match the top of the stack (or with
    an empty stack) is counted as unbalanced and dropped rather than
    corrupting the trace.  Recording is a no-op while telemetry is
    disabled (see {!Control}).

    The exported file opens directly in Perfetto
    ({:https://ui.perfetto.dev}) or [chrome://tracing]; spans appear as
    one track per domain. *)

type event = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  args : (string * float) list;
}

val with_context : (string * float) list -> (unit -> 'a) -> 'a
(** [with_context kvs f] appends [kvs] to the args of every span this
    domain completes during [f] (exception-safe, nestable; inner
    contexts shadow nothing — args accumulate).  Domain-local, a
    [Domain.DLS] slot like [Engine.Cancel]'s hook, but spawned domains
    do not inherit it.  Used to stamp
    engine spans with [request_id]/[job_id] on the serving path. *)

val context : unit -> (string * float) list
(** The calling domain's current context ([[]] outside
    {!with_context}). *)

val begin_span : ?cat:string -> string -> unit
val end_span : ?args:(string * float) list -> string -> unit
(** [args] attach numeric details (cut, moves, vertices, ...) to the
    completed span; they show in the Perfetto details pane. *)

val span : ?cat:string -> ?args:(string * float) list -> string -> (unit -> 'a) -> 'a
(** [span name f] wraps [f] in a begin/end pair (exception-safe). *)

val events : unit -> event list
(** All completed spans from every domain, sorted by start time. *)

val event_count : unit -> int

val unbalanced_spans : unit -> int
(** Number of [end_span] calls that did not match an open span. *)

(* kept: the balance check the span tests use *)
val open_spans : unit -> int
(** Spans begun but not yet ended, across all domains. *)

val to_json : unit -> string
(** Chrome [trace_event] JSON ({i JSON object format}: a top-level
    object with a [traceEvents] array of complete ["ph":"X"] events
    plus process/thread-name metadata). *)

val write : string -> unit
val reset : unit -> unit
