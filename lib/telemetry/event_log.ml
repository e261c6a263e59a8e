(* Flight recorder: a bounded, crash-safe JSONL event log.

   The lab store records run *outcomes*; this records *what happened in
   between* — request admitted, dedup hit, run started, pass improved,
   rollback, done/timeout/failure — one flat JSON object per line on
   the shared [Jsonl] log, so it has the same crash contract as the run
   store: per-line flush, and an unterminated tail repaired on open.
   Timestamps are monotonic microseconds from the same clock as Trace
   spans, so events correlate directly with a trace file.

   A single process-global sink can be installed; [record] is the hot
   entry point and costs one atomic load when no sink is present, so
   engine-level emission (FM pass boundaries) can stay unconditional in
   the source.  Emission past [max_events] is dropped and counted, as
   are write failures; both totals are published as
   [telemetry.events_*] probe gauges. *)

type t = {
  lock : Mutex.t;
  log : Jsonl.t;
  path : string;
  max_events : int;
  mutable written : int;
  mutable dropped : int;
  mutable closed : bool;
}

let total_logged = Atomic.make 0
let total_dropped = Atomic.make 0

let open_log ?(max_events = 100_000) path =
  {
    lock = Mutex.create ();
    log = Jsonl.open_log path;
    path;
    max_events;
    written = 0;
    dropped = 0;
    closed = false;
  }

let path t = t.path
let written t = Mutex.lock t.lock; let n = t.written in Mutex.unlock t.lock; n
let dropped t = Mutex.lock t.lock; let n = t.dropped in Mutex.unlock t.lock; n

let record_fields event fields =
  (* merge the domain's trace context so engine events carry
     request_id/job_id without threading them through every call site;
     explicit fields win on a key clash *)
  let explicit = List.map fst fields in
  let ctx =
    List.filter_map
      (fun (k, v) -> if List.mem k explicit then None else Some (k, Jsonl.Float v))
      (Trace.context ())
  in
  ("ts_us", Jsonl.Float (Clock.now_us ()))
  :: ("event", Jsonl.String event)
  :: (fields @ ctx)

let emit t event fields =
  let fields = record_fields event fields in
  Mutex.lock t.lock;
  if t.closed || t.written >= t.max_events then begin
    t.dropped <- t.dropped + 1;
    Atomic.incr total_dropped
  end
  else begin
    match Jsonl.append t.log fields with
    | () ->
      t.written <- t.written + 1;
      Atomic.incr total_logged
    | exception Sys_error _ ->
      (* unwritable sink (disk full, closed fd): stop trying, count *)
      t.closed <- true;
      t.dropped <- t.dropped + 1;
      Atomic.incr total_dropped
  end;
  Mutex.unlock t.lock

(* -- process-global sink -- *)

let current : t option Atomic.t = Atomic.make None
let install t = Atomic.set current (Some t)
let installed () = Atomic.get current
let enabled () = Atomic.get current <> None

let record event fields =
  match Atomic.get current with None -> () | Some t -> emit t event fields

let close t =
  (match Atomic.get current with
  | Some t' when t' == t -> Atomic.set current None
  | _ -> ());
  Mutex.lock t.lock;
  if not t.closed then begin
    t.closed <- true;
    (try Jsonl.close t.log with Sys_error _ -> ())
  end;
  Mutex.unlock t.lock

let () =
  Metrics.register_probe "telemetry.events_logged" (fun () ->
      float_of_int (Atomic.get total_logged));
  Metrics.register_probe "telemetry.events_dropped" (fun () ->
      float_of_int (Atomic.get total_dropped))
