(** Self-time attribution over span traces.

    A span's self time is its duration minus the part of its interval
    covered by its child spans on the same thread (domain).  Spans nest
    per thread, so a child is the innermost span open on that thread when
    it starts.  Spans are attributed to operations through their
    [request_id] argument, which the daemon stamps on every engine span
    of a request and the benchmark stamps on its own spans. *)

type span = {
  name : string;
  tid : int;
  ts_us : float;  (** start *)
  dur_us : float;
  args : (string * float) list;
}

val of_trace_events : Hypart_telemetry.Trace.event list -> span list
(** Spans recorded in this process. *)

val of_chrome_json : string -> span list
(** The complete (["ph":"X"]) events of a Chrome [trace_event] document,
    as written by [hypart --trace].
    @raise Failure on a malformed document. *)

type self_time = {
  span_name : string;
  thread : int;
  calls : int;
  total_us : float;  (** summed durations *)
  self_us : float;  (** summed self times *)
}

val self_times : ?keep:(string -> bool) -> span list -> self_time list
(** Self time per (span name, thread), sorted by name then thread.
    Spans whose name fails [keep] (default: keep all) are removed first,
    so their time counts toward the nearest kept enclosing span. *)

val self_us : self_time list -> string -> float
(** Self time of one span name summed over threads; [0.] if absent. *)

val request_id : span -> float option

val for_requests : (float, unit) Hashtbl.t -> span list -> span list
(** The spans whose [request_id] is in the table. *)
