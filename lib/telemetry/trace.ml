(* Nestable begin/end spans on the monotonic clock, recorded into
   per-domain buffers (no locking on the record path) and merged at
   export time into Chrome trace_event JSON, so a run opens directly in
   Perfetto / chrome://tracing. *)

type event = {
  name : string;
  cat : string;
  ts_us : float;    (* span start, monotonic microseconds *)
  dur_us : float;
  tid : int;        (* recording domain *)
  args : (string * float) list;
}

type buffer = {
  tid : int;
  mutable events : event list;  (* newest first *)
  mutable stack : (string * string * float) list;  (* name, cat, start ts *)
  mutable n_events : int;
  mutable n_unbalanced : int;
}

(* Every domain gets its own buffer on first use; buffers register
   themselves in [buffers] so export sees spans recorded by domains
   that have since terminated. *)
let buffers : buffer list ref = ref []
let buffers_lock = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          tid = (Domain.self () :> int);
          events = [];
          stack = [];
          n_events = 0;
          n_unbalanced = 0;
        }
      in
      Mutex.lock buffers_lock;
      buffers := b :: !buffers;
      Mutex.unlock buffers_lock;
      b)

let my_buffer () = Domain.DLS.get dls_key

(* -- request context --

   Domain-local key/value pairs appended to the args of every span the
   domain completes while the context is installed (same DLS pattern as
   [Engine.Cancel]).  The server wraps each engine run in
   [with_context [("request_id", ...); ("job_id", ...)]] so a Perfetto
   file shows which spans served which request. *)

let context_key : (string * float) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let context () = Domain.DLS.get context_key

let with_context kvs f =
  let prev = Domain.DLS.get context_key in
  Domain.DLS.set context_key (kvs @ prev);
  Fun.protect ~finally:(fun () -> Domain.DLS.set context_key prev) f

let begin_span ?(cat = "hypart") name =
  if Control.spans_enabled () then begin
    let b = my_buffer () in
    b.stack <- (name, cat, Clock.now_us ()) :: b.stack
  end

let end_span ?(args = []) name =
  if Control.spans_enabled () then begin
    let b = my_buffer () in
    match b.stack with
    | (n, cat, t0) :: rest when n = name ->
      b.stack <- rest;
      let now = Clock.now_us () in
      let args =
        match Domain.DLS.get context_key with
        | [] -> args
        | ctx -> args @ ctx
      in
      b.events <-
        { name; cat; ts_us = t0; dur_us = now -. t0; tid = b.tid; args }
        :: b.events;
      b.n_events <- b.n_events + 1
    | (_, _, _) :: rest ->
      (* mismatched end: count it and drop the stale frame so the
         stack cannot grow without bound *)
      b.n_unbalanced <- b.n_unbalanced + 1;
      b.stack <- rest
    | [] -> b.n_unbalanced <- b.n_unbalanced + 1
  end

let span ?cat ?(args = []) name f =
  begin_span ?cat name;
  Fun.protect ~finally:(fun () -> end_span ~args name) f

let all_buffers () =
  Mutex.lock buffers_lock;
  let bs = !buffers in
  Mutex.unlock buffers_lock;
  bs

let events () =
  all_buffers ()
  |> List.concat_map (fun b -> b.events)
  |> List.sort (fun a b -> compare a.ts_us b.ts_us)

let event_count () =
  List.fold_left (fun acc b -> acc + b.n_events) 0 (all_buffers ())

let unbalanced_spans () =
  List.fold_left (fun acc b -> acc + b.n_unbalanced) 0 (all_buffers ())

let open_spans () =
  List.fold_left (fun acc b -> acc + List.length b.stack) 0 (all_buffers ())

let reset () =
  List.iter
    (fun b ->
      b.events <- [];
      b.stack <- [];
      b.n_events <- 0;
      b.n_unbalanced <- 0)
    (all_buffers ())

(* -- Chrome trace_event export -- *)

let event_json e =
  Json_out.obj
    ([
       ("name", Json_out.string e.name);
       ("cat", Json_out.string e.cat);
       ("ph", Json_out.string "X");
       ("ts", Json_out.number e.ts_us);
       ("dur", Json_out.number e.dur_us);
       ("pid", Json_out.int 1);
       ("tid", Json_out.int e.tid);
     ]
    @
    match e.args with
    | [] -> []
    | args ->
      [
        ( "args",
          Json_out.obj (List.map (fun (k, v) -> (k, Json_out.number v)) args)
        );
      ])

let metadata_json () =
  let tids =
    List.sort_uniq compare (List.map (fun (e : event) -> e.tid) (events ()))
  in
  Json_out.obj
    [
      ("name", Json_out.string "process_name");
      ("ph", Json_out.string "M");
      ("pid", Json_out.int 1);
      ("tid", Json_out.int 0);
      ("args", Json_out.obj [ ("name", Json_out.string "hypart") ]);
    ]
  :: List.map
       (fun tid ->
         Json_out.obj
           [
             ("name", Json_out.string "thread_name");
             ("ph", Json_out.string "M");
             ("pid", Json_out.int 1);
             ("tid", Json_out.int tid);
             ( "args",
               Json_out.obj
                 [ ("name", Json_out.string (Printf.sprintf "domain-%d" tid)) ]
             );
           ])
       tids

let to_json () =
  Json_out.obj
    [
      ( "traceEvents",
        Json_out.arr (metadata_json () @ List.map event_json (events ())) );
      ("displayTimeUnit", Json_out.string "ms");
    ]

let write path = Json_out.write_file path (to_json ())

(* Instrumentation failures must themselves be observable: publish the
   unbalanced/open span counts as snapshot-time gauges. *)
let () =
  Metrics.register_probe "telemetry.unbalanced_spans" (fun () ->
      float_of_int (unbalanced_spans ()));
  Metrics.register_probe "telemetry.open_spans" (fun () ->
      float_of_int (open_spans ()))
