module Io = Hypart_hypergraph.Netlist_io
module Instance_store = Hypart_hypergraph.Instance_store
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Balance = Hypart_partition.Balance
module Engine = Hypart_engine.Engine
module Parallel = Hypart_engine.Parallel
module Cancel = Hypart_engine.Cancel
module Delta = Hypart_delta.Delta
module Patch = Hypart_delta.Patch
module Eco = Hypart_delta.Eco
module Run_store = Hypart_lab.Run_store
module Fingerprint = Hypart_lab.Fingerprint
module Tel = Hypart_telemetry.Control
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace
module Event_log = Hypart_telemetry.Event_log
module Jsonl = Hypart_telemetry.Jsonl
module Clock = Hypart_telemetry.Clock
module J = Hypart_telemetry.Json_out

let log_src = Logs.Src.create "hypart.server" ~doc:"partitioning daemon"

module Log = (val Logs.src_log log_src)

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  max_body : int;
  store : string option;
  retention : int;
  instance_cache_bytes : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8817;
    workers = Parallel.recommended_domains ();
    queue_capacity = 64;
    max_body = 64 * 1024 * 1024;
    store = None;
    retention = 1024;
    instance_cache_bytes = 512 * 1024 * 1024;
  }

(* a queued element: the accepted socket and its admission time — the
   deadline clock starts at admission, so time spent waiting in the
   queue counts against the request's deadline *)
type conn = { fd : Unix.file_descr; accepted_s : float }

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  queue : conn Job_queue.t;
  jobs : Job_table.t;
  runs : Run_store.t;
  instances : Instance_cache.t;
  stop : bool Atomic.t;
  in_flight : int Atomic.t;
  started_s : float;  (* monotonic, for /healthz uptime *)
  (* self-pipe: [shutdown] writes a byte so the accept loop's select
     wakes even when no connection is pending *)
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
}

let create config =
  if config.workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  if config.queue_capacity < 1 then
    invalid_arg "Server.create: queue_capacity must be >= 1";
  Hypart_engines.init ();
  (* the daemon is observability-first: /metrics is an endpoint, so
     metrics are on for the whole process lifetime.  Spans are not: no
     endpoint drains them, so they stay on only when `--trace` or
     `--profile` turned them on for a trace written at exit *)
  Tel.enable_metrics ();
  (* the whole process's heap, read at scrape time: Gc.quick_stat sums
     the reading domain's live counts and every other domain's counts
     as of its last stop-the-world minor collection, so a minor
     collection first makes them all current and two scrapes answered
     by different workers never read a decrease *)
  List.iter
    (fun (name, f) ->
      Metrics.register_probe name (fun () ->
          Gc.minor ();
          f (Gc.quick_stat ())))
    [ ("runtime.major_words", fun s -> s.Gc.major_words);
      ("runtime.major_collections", fun s -> float s.Gc.major_collections);
      ("runtime.heap_words", fun s -> float s.Gc.heap_words) ];
  let listen_fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt listen_fd SO_REUSEADDR true;
  (try
     Unix.bind listen_fd
       (ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen listen_fd 128
   with e ->
     Unix.close listen_fd;
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let runs =
    match config.store with
    | Some dir -> Run_store.open_store dir
    | None -> Run_store.in_memory ()
  in
  let pipe_r, pipe_w = Unix.pipe () in
  {
    config;
    listen_fd;
    bound_port;
    queue =
      Job_queue.create ~capacity:config.queue_capacity
        ~on_length:(fun n ->
          Metrics.set_gauge "server.queue_depth" (float_of_int n))
        ();
    jobs = Job_table.create ~retention:config.retention;
    runs;
    instances = Instance_cache.create ~max_bytes:config.instance_cache_bytes ();
    stop = Atomic.make false;
    in_flight = Atomic.make 0;
    started_s = Clock.now_s ();
    pipe_r;
    pipe_w;
  }

let port t = t.bound_port

let shutdown t =
  if not (Atomic.exchange t.stop true) then
    (* wake the accept loop; EPIPE/EBADF mean it is already gone *)
    try ignore (Unix.write_substring t.pipe_w "x" 0 1) with _ -> ()

(* ------------------------------------------------------------------ *)
(* Socket plumbing                                                     *)

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s off len

(* best-effort: the client may already be gone; that must never take a
   worker down *)
let send fd bytes =
  try write_all fd bytes 0 (String.length bytes) with Unix.Unix_error _ -> ()

let send_response fd ?headers ~status ~body () =
  send fd (Http.render_response ?headers ~status ~body ())

let continue_line = "HTTP/1.1 100 Continue\r\n\r\n"

(* the socket is read through one 64 KiB chunk per worker domain: the
   request and a drained remainder never overlap on a domain *)
let chunk_key = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let read_request fd parser =
  let buf = Domain.DLS.get chunk_key in
  let continued = ref false in
  let rec loop () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> `Closed
    | n -> (
      match Http.feed_bytes parser buf 0 n with
      | `More ->
        (* answer [Expect: 100-continue] once, so the client sends the
           body now instead of after its own timeout *)
        if (not !continued) && Http.expects_continue parser then begin
          continued := true;
          try write_all fd continue_line 0 (String.length continue_line)
          with Unix.Unix_error _ -> ()
        end;
        loop ()
      | `Request r -> `Request r
      | `Error e -> `Http_error e)
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> `Timeout
    | exception Unix.Unix_error _ -> `Closed
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* JSON bodies                                                         *)

let error_body msg = J.obj [ ("error", J.string msg) ]

let send_error ?headers fd status msg =
  send_response fd ?headers ~status ~body:(error_body msg) ()

(* ------------------------------------------------------------------ *)
(* Request ids

   The client mints one (X-Hypart-Request-Id) so it can correlate its
   submission with daemon-side spans and events; the daemon mints one
   the same way for clients that send none.  Ids are decimal integers
   below 2^53 so they survive the float-valued Trace args exactly. *)

let request_id_header = "X-Hypart-Request-Id"

(* Trace args are numeric; a non-numeric client id tags spans with the
   top 53 bits of its lab fingerprint, deterministic and exact as a
   float. *)
let request_id_arg rid =
  match float_of_string_opt rid with
  | Some f when Float.is_finite f && Float.abs f < 9e15 -> f
  | _ ->
    let h = Int64.of_string ("0x" ^ Fingerprint.of_string rid) in
    Int64.to_float (Int64.shift_right_logical h 11)

let request_id_of req =
  match Http.header req "x-hypart-request-id" with
  | Some s when s <> "" && String.length s <= 128 -> s
  | _ -> Client.mint_request_id ()

(* ------------------------------------------------------------------ *)
(* Request parameter parsing                                           *)

(* a request refused before any job exists: HTTP status and message *)
exception Reject of int * string

let bad msg = raise (Reject (400, msg))

let param conv what req name default =
  match Http.query_param req name with
  | None -> default
  | Some s -> (
    match conv s with
    | Some v -> v
    | None -> bad (Printf.sprintf "%s must be %s" name what))

let param_int = param int_of_string_opt "an integer"

let param_float =
  let finite v = if Float.is_finite v then Some v else None in
  param (fun s -> Option.bind (float_of_string_opt s) finite) "a number"

let param_string req name default =
  Option.value ~default (Http.query_param req name)

(* an enumerated parameter; the first choice is the default *)
let param_choice req name choices =
  let v = param_string req name (fst (List.hd choices)) in
  match List.assoc_opt v choices with
  | Some c -> c
  | None ->
    bad
      (Printf.sprintf "unknown %s %s (%s)" name v
         (String.concat " | " (List.map fst choices)))

let param_engine req name default =
  let name = param_string req name default in
  match Engine.find name with
  | Some e -> e
  | None ->
    bad
      (Printf.sprintf "unknown engine %s (registered: %s)" name
         (String.concat " | " (Engine.names ())))

(* the parameters every POST endpoint shares *)
type params = {
  seed : int;
  tolerance : float;
  deadline_s : float option;  (** relative, seconds *)
  out : [ `Json | `Plain ];
  want_assignment : bool;
}

let parse_params req =
  let tolerance = param_float req "tol" 0.02 in
  (* outside Balance's range (NaN included) the engine would raise *)
  if tolerance = 0. || not (Balance.valid_tolerance tolerance) then
    bad "tol must be in (0, 1)";
  let deadline_s =
    match param_int req "deadline_ms" 0 with
    | 0 -> None
    | ms when ms > 0 -> Some (float_of_int ms /. 1000.)
    | _ -> bad "deadline_ms must be positive"
  in
  let out = param_choice req "out" [ ("json", `Json); ("plain", `Plain) ] in
  {
    seed = param_int req "seed" 1;
    tolerance;
    deadline_s;
    out;
    want_assignment = param_int req "assignment" 1 <> 0;
  }

(* request-body content cache: a repeat submission of the same bytes
   (common when a campaign resubmits one huge instance under many
   seeds) reuses the parsed hypergraph and fingerprint *)
let load_instance t tm (req : Http.request) format =
  let body = req.Http.body and length = req.Http.body_length in
  let ckey, resident =
    Job_table.timed tm Key (fun () ->
        let ckey = Instance_cache.key_bytes ~format:(Io.format_tag format) body length in
        (ckey, Instance_cache.find t.instances ckey))
  in
  match resident with
  | Some (h, fp) ->
    Metrics.incr "server.instance_cache_hits";
    (h, fp, "cache")
  | None ->
    (* a packed body carries the fingerprint [hypart pack] computed
       from the same pin arrays; only text formats are fingerprinted *)
    let h, stored =
      Job_table.timed tm Parse (fun () ->
          Io.decode_bytes ~source:"<body>" format body length)
    in
    let fp =
      match stored with
      | Some fp -> fp
      | None -> Job_table.timed tm Fingerprint (fun () -> Fingerprint.of_instance h)
    in
    Metrics.incr "server.instance_cache_misses";
    Instance_cache.add t.instances ckey h ~fingerprint:fp;
    Metrics.set_gauge "server.instance_cache_bytes"
      (float_of_int (Instance_cache.bytes t.instances));
    (h, fp, "parse")

(* ------------------------------------------------------------------ *)
(* The request pipeline

   Every POST endpoint is [serve] applied to the endpoint's [admit]
   function.  [admit] validates what is specific to the endpoint
   (raising [Reject]) and describes the job: its dedup-key parts, a run
   thunk, and the event fields, headers and JSON fields it adds to the
   shared ones.  [serve] owns the rest, once for every endpoint:
   request id and trace context, the reject path, the job ledger and
   the [request.*] lifecycle events, the dedup lookup, the deadline
   (checked at dequeue and polled through [Cancel.with_hook]), the
   in-flight gauge, the run-store record and the response encoding. *)

(* what a fresh run adds to the answer *)
type fresh = {
  result : Engine.Result.t;
  seconds : float;  (** engine CPU seconds *)
  done_fields : (string * Jsonl.value) list;  (** on [request.done] *)
  fresh_headers : (string * string) list;
  fresh_json : (string * string) list;
}

type job_spec = {
  engine : string;
  config_fp : string;
  instance_fp : string;
  starts : int;
  admitted_fields : (string * Jsonl.value) list;
      (** on [request.admitted] *)
  headers : (string * string) list;  (** on every 200 answer *)
  json : (string * string) list;  (** on every JSON answer *)
  run : unit -> fresh;
}

(* An answer is rendered in one allocation ({!Http.render_response_with}):
   the partition is written side by side into the response itself.  A
   side is 0 or 1, one digit, so the plain body is exactly two bytes a
   vertex and the JSON array two bytes a vertex plus its bracket. *)
let write_sides b off solution sep =
  for v = 0 to Bipartition.num_vertices solution - 1 do
    Bytes.unsafe_set b (off + (2 * v))
      (Char.unsafe_chr (Char.code '0' + Bipartition.side solution v));
    Bytes.unsafe_set b (off + (2 * v) + 1) sep
  done

let render_answer ~out ~want_assignment ~headers ~fields solution =
  match (out, solution) with
  | `Plain, Some s ->
    (* body is exactly a Netlist_io partition file (one side per line);
       all metadata travels in X-Hypart-* headers *)
    Http.render_response_with ~headers ~status:200
      ~length:(2 * Bipartition.num_vertices s)
      (fun b off -> write_sides b off s '\n')
  | `Plain, None ->
    (* a cached record has no assignment: the body is empty and the
       headers say so *)
    Http.render_response ~headers ~status:200 ~body:"" ()
  | `Json, Some s when want_assignment ->
    (* the object as [J.obj] renders it with an empty [assignment]
       value, and the array written before its closing brace *)
    let obj = J.obj (fields @ [ ("assignment", "") ]) in
    let prefix = String.length obj - 1 in
    let n = Bipartition.num_vertices s in
    let array = if n = 0 then 2 else 2 * n + 1 in
    Http.render_response_with ~headers ~status:200 ~length:(prefix + array + 1)
      (fun b off ->
        Bytes.blit_string obj 0 b off prefix;
        let off = off + prefix in
        Bytes.unsafe_set b off '[';
        write_sides b (off + 1) s ',';
        (* the last side's comma becomes the closing bracket *)
        Bytes.unsafe_set b (off + array - 1) ']';
        Bytes.unsafe_set b (off + array) '}')
  | `Json, _ -> Http.render_response ~headers ~status:200 ~body:(J.obj fields) ()

(* the rendered 200 answer *)
let respond p (job : Job_table.job) spec ~cached ~cut ~legal ~seconds
    ?(headers = []) ?(json = []) solution =
  let headers =
    [
      ( "Content-Type",
        match p.out with `Json -> "application/json" | `Plain -> "text/plain" );
      (request_id_header, job.Job_table.request_id);
      ("X-Hypart-Job", string_of_int job.Job_table.id);
      ("X-Hypart-Cut", string_of_int cut);
      ("X-Hypart-Legal", string_of_bool legal);
      ("X-Hypart-Cached", string_of_bool cached);
      ("X-Hypart-Seconds", Printf.sprintf "%.6f" seconds);
    ]
    @ spec.headers @ headers
  in
  let fields =
    match p.out with
    | `Plain -> []
    | `Json ->
      [
        ("job", J.int job.Job_table.id);
        ("engine", J.string job.Job_table.engine);
        ("key", J.string job.Job_table.key);
        ("seed", J.int job.Job_table.seed);
      ]
      @ spec.json
      @ [
          ("cut", J.int cut);
          ("legal", string_of_bool legal);
          ("cached", string_of_bool cached);
          ("seconds", J.number seconds);
        ]
      @ json
  in
  render_answer ~out:p.out ~want_assignment:p.want_assignment ~headers ~fields
    solution

let add_in_flight t d =
  let n = Atomic.fetch_and_add t.in_flight d + d in
  Metrics.set_gauge "server.in_flight" (float_of_int n)

let serve t fd (req : Http.request) tm admit =
  let rid = request_id_of req in
  let event name fields =
    Event_log.record name (("request_id", Jsonl.String rid) :: fields)
  in
  let error =
    send_error fd
      ~headers:[ ("Content-Type", "application/json"); (request_id_header, rid) ]
  in
  match
    let p = parse_params req in
    (p, admit ~event tm req p)
  with
  | exception Reject (status, msg) ->
    Metrics.incr "server.bad_requests";
    event "request.rejected" [ ("error", Jsonl.String msg) ];
    error status msg
  | p, spec -> (
    let key =
      Run_store.key ~engine:spec.engine ~config:spec.config_fp
        ~instance:spec.instance_fp ~seed:p.seed
    in
    let job =
      Job_table.add t.jobs ~request_id:rid ~engine:spec.engine ~key ~seed:p.seed
        ~starts:spec.starts
    in
    let jobf = [ ("job", Jsonl.Int job.Job_table.id) ] in
    event "request.admitted"
      (jobf
      @ [ ("engine", Jsonl.String spec.engine); ("seed", Jsonl.Int p.seed) ]
      @ spec.admitted_fields
      @ [ ("key", Jsonl.String key) ]);
    let finish status ~cut ~legal ~seconds =
      job.Job_table.cut <- Some cut;
      job.Job_table.legal <- Some legal;
      job.Job_table.seconds <- seconds;
      Job_table.update t.jobs job status
    in
    (* the phases are in the ledger before the answer leaves, so a
       client that reads /jobs/<id> after the answer always finds them *)
    let reply render =
      let bytes = Job_table.timed tm Encode render in
      Job_table.record_phases t.jobs job tm;
      send fd bytes
    in
    let deadline_abs =
      Option.map (fun d -> Job_table.accepted_s tm +. d) p.deadline_s
    in
    let expired () =
      match deadline_abs with Some dl -> Clock.now_s () > dl | None -> false
    in
    let deadline_exceeded where when_ =
      Metrics.incr "server.deadline_exceeded";
      Job_table.update t.jobs job Job_table.Deadline_exceeded;
      event "request.deadline" (jobf @ [ ("where", Jsonl.String where) ]);
      error 504 ("deadline exceeded " ^ when_)
    in
    match Run_store.find t.runs ~key with
    | Some r ->
      (* duplicate submission: answered from the content-addressed
         run store, zero engine runs *)
      Metrics.incr "server.cache_served";
      let cut = r.Run_store.cut and legal = r.Run_store.legal in
      let seconds = r.Run_store.seconds in
      finish Job_table.Served_cached ~cut ~legal ~seconds;
      event "request.dedup_hit" (jobf @ [ ("cut", Jsonl.Int cut) ]);
      reply (fun () -> respond p job spec ~cached:true ~cut ~legal ~seconds None)
    | None when expired () ->
      (* the deadline elapsed while the request waited in the queue:
         refuse without burning engine time *)
      deadline_exceeded "queued" "while queued"
    | None -> (
      Job_table.update t.jobs job Job_table.Running;
      event "request.started" jobf;
      add_in_flight t 1;
      match
        (* every span the engine emits below (fm.run, fm.pass, engine
           multistart spans, ...) carries the request/job ids in its
           args, and flight-recorder events emitted by the engine
           inherit them from the same context *)
        Fun.protect
          ~finally:(fun () -> add_in_flight t (-1))
          (fun () ->
            Trace.with_context
              [
                ("request_id", request_id_arg rid);
                ("job_id", float_of_int job.Job_table.id);
              ]
              (fun () ->
                Job_table.timed tm Engine (fun () -> Cancel.with_hook expired spec.run)))
      with
      | f ->
        let cut = f.result.Engine.Result.cut in
        let legal = f.result.Engine.Result.legal in
        ignore
          (Run_store.record t.runs ~engine:spec.engine ~config:spec.config_fp
             ~instance:spec.instance_fp ~seed:p.seed ~cut ~legal
             ~seconds:f.seconds ~stats:f.result.Engine.Result.stats);
        Metrics.incr "server.jobs_executed";
        Metrics.observe "server.engine_seconds" f.seconds;
        (* a late run is valid and stored (a retry is a dedup hit), but 504 *)
        if expired () then deadline_exceeded "late" "after the run"
        else begin
          finish Job_table.Done ~cut ~legal ~seconds:f.seconds;
          event "request.done"
            (jobf
            @ [
                ("cut", Jsonl.Int cut);
                ("legal", Jsonl.Bool legal);
                ("seconds", Jsonl.Float f.seconds);
              ]
            @ f.done_fields);
          reply (fun () ->
              respond p job spec ~cached:false ~cut ~legal ~seconds:f.seconds
                ~headers:f.fresh_headers ~json:f.fresh_json
                (Some f.result.Engine.Result.solution))
        end
      | exception Cancel.Cancelled -> deadline_exceeded "run" "during the run"
      | exception e ->
        Metrics.incr "server.failures";
        let msg = Printexc.to_string e in
        Log.err (fun m -> m "job %d failed: %s" job.Job_table.id msg);
        Job_table.update t.jobs job (Job_table.Failed msg);
        event "request.failed" (jobf @ [ ("error", Jsonl.String msg) ]);
        error 500 ("engine failed: " ^ msg)))

(* ------------------------------------------------------------------ *)
(* POST /partition                                                     *)

let admit_partition t ~event tm (req : Http.request) p =
  let engine = param_engine req "engine" "mlclip" in
  let starts = param_int req "starts" 1 in
  if starts < 1 then bad "starts must be >= 1";
  let format =
    param_choice req "format"
      (List.map (fun f -> (Io.format_tag f, f)) Io.formats)
  in
  let h, instance, source =
    try load_instance t tm req format
    with Io.Parse_error msg | Instance_store.Format_error msg ->
      bad ("netlist: " ^ msg)
  in
  event "request.instance_loaded"
    [
      ("source", Jsonl.String source);
      ("format", Jsonl.String (Io.format_tag format));
      ("instance", Jsonl.String instance);
      ("vertices", Jsonl.Int (Hypart_hypergraph.Hypergraph.num_vertices h));
      ("edges", Jsonl.Int (Hypart_hypergraph.Hypergraph.num_edges h));
      ("pins", Jsonl.Int (Hypart_hypergraph.Hypergraph.num_pins h));
    ];
  {
    engine = Engine.name engine;
    config_fp = Fingerprint.seeded_config ~tolerance:p.tolerance ~starts;
    instance_fp = instance;
    starts;
    admitted_fields = [ ("starts", Jsonl.Int starts) ];
    (* the instance fingerprint lets the client name this instance as
       the base of a later POST /delta without re-deriving it locally *)
    headers = [ ("X-Hypart-Instance", instance) ];
    json = [ ("starts", J.int starts) ];
    run =
      (fun () ->
        let problem = Problem.make ~tolerance:p.tolerance h in
        (* `partition --starts n --seed s`, at any --domains *)
        let result, records =
          Engine.multistart_seeds engine problem ~seed:p.seed ~starts
        in
        let seconds = Engine.cpu_seconds records in
        { result; seconds; done_fields = []; fresh_headers = []; fresh_json = [] });
  }

(* ------------------------------------------------------------------ *)
(* POST /delta

   The body is a .hgrd edit script with an embedded prior partition;
   the base instance is resolved by lab fingerprint (the delta's [base]
   line, or the X-Hypart-Base header) against the resident instance
   cache — the daemon never re-reads a netlist it already parsed.  The
   patched instance is re-cached under its chained fingerprint, so a
   follow-up delta can name this response's X-Hypart-Delta-Fingerprint
   as its base. *)

(* the prior partition participates in the dedup key: the same delta
   warm-started from a different solution is a different computation *)
let prior_fingerprint prior =
  let b = Bytes.create (Array.length prior) in
  Array.iteri (fun i s -> Bytes.set b i (if s = 0 then '0' else '1')) prior;
  Fingerprint.of_string (Bytes.unsafe_to_string b)

let delta_config_fingerprint (c : Eco.config) ~scratch ~prior_fp =
  Fingerprint.of_pairs
    [
      ("proto", "delta-v1");
      ("tolerance", Printf.sprintf "%.9g" c.Eco.tolerance);
      ("radius", string_of_int c.Eco.radius);
      ("fallback", Printf.sprintf "%.9g" c.Eco.fallback_fraction);
      ("scratch", Engine.name scratch);
      ("prior", prior_fp);
    ]

let mode_string = function Eco.Warm -> "warm" | Eco.Scratch -> "scratch"

let admit_delta t ~event tm (req : Http.request) p =
  let radius = param_int req "radius" Eco.default_config.Eco.radius in
  if radius < 0 then bad "radius must be >= 0";
  let fallback_fraction =
    param_float req "fallback_fraction" Eco.default_config.Eco.fallback_fraction
  in
  if not (fallback_fraction >= 0. && fallback_fraction <= 1.) then
    bad "fallback_fraction must be in [0, 1]";
  let engine = param_engine req "engine" "eco_fm" in
  let scratch = param_engine req "scratch" "mlclip" in
  let delta =
    Job_table.timed tm Parse (fun () ->
        try Delta.of_bytes ~source:"<delta>" req.Http.body req.Http.body_length
        with Delta.Parse_error msg -> bad ("delta: " ^ msg))
  in
  let base_fp =
    match (delta.Delta.base, Http.header req "x-hypart-base") with
    | Some (fp, _), _ | None, Some fp -> fp
    | None, None ->
      bad
        "delta: no base fingerprint (add a base line or the X-Hypart-Base \
         header)"
  in
  let prior =
    match delta.Delta.prior with
    | Some prior -> prior
    | None ->
      bad "delta: the request must embed a prior partition (prior <n> section)"
  in
  let base =
    match
      Job_table.timed tm Key (fun () -> Instance_cache.find_fingerprint t.instances base_fp)
    with
    | Some base -> base
    | None ->
      raise (Reject (404, Printf.sprintf "base instance %s is not resident; \
                                          submit it first via POST /partition"
                          base_fp))
  in
  (* the patched instance is this endpoint's parse: the instance the
     engine runs on, built from the request body *)
  let patch =
    Job_table.timed tm Parse (fun () ->
        try Patch.apply ~base ~base_fingerprint:base_fp delta with
        | Patch.Apply_error msg | Invalid_argument msg -> bad ("delta: " ^ msg))
  in
  if Array.length prior <> patch.Patch.num_base_vertices then
    bad
      (Printf.sprintf
         "delta: prior has %d sides but the base instance has %d cells"
         (Array.length prior) patch.Patch.num_base_vertices);
  let stats = patch.Patch.stats in
  Metrics.incr "delta.applied";
  Metrics.observe "delta.ops" (float_of_int (Delta.num_ops delta));
  Metrics.observe "delta.pins_touched" (float_of_int stats.Patch.pins_touched);
  event "request.delta_applied"
    [
      ("base", Jsonl.String base_fp);
      ("instance", Jsonl.String patch.Patch.fingerprint);
      ("ops", Jsonl.Int (Delta.num_ops delta));
      ("pins_touched", Jsonl.Int stats.Patch.pins_touched);
      ("nets_added", Jsonl.Int stats.Patch.nets_added);
      ("nets_removed", Jsonl.Int stats.Patch.nets_removed);
      ("cells_added", Jsonl.Int stats.Patch.cells_added);
      ("cells_removed", Jsonl.Int stats.Patch.cells_removed);
    ];
  (* the patched instance becomes resident under its chained
     fingerprint, so the next delta can stack on this one *)
  Instance_cache.add t.instances
    ("fp:" ^ patch.Patch.fingerprint)
    patch.Patch.hypergraph ~fingerprint:patch.Patch.fingerprint;
  let config = { Eco.radius; fallback_fraction; tolerance = p.tolerance } in
  {
    engine = Engine.name engine;
    config_fp =
      delta_config_fingerprint config ~scratch
        ~prior_fp:(prior_fingerprint prior);
    instance_fp = patch.Patch.fingerprint;
    starts = 1;
    admitted_fields = [];
    headers = [ ("X-Hypart-Delta-Fingerprint", patch.Patch.fingerprint) ];
    json =
      [
        ("instance", J.string patch.Patch.fingerprint);
        ("pins_touched", J.int stats.Patch.pins_touched);
      ];
    run =
      (fun () ->
        let o = Eco.run ~config ~engine ~scratch ~seed:p.seed ~prior patch in
        let mode = mode_string o.Eco.mode in
        {
          result = o.Eco.result;
          seconds = o.Eco.seconds;
          done_fields =
            [
              ("mode", Jsonl.String mode);
              ("free_vertices", Jsonl.Int o.Eco.free_vertices);
            ];
          fresh_headers = [ ("X-Hypart-Mode", mode) ];
          fresh_json = [ ("mode", J.string mode) ];
        });
  }

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let healthz_body t =
  J.obj
    [
      ( "status",
        J.string (if Atomic.get t.stop then "draining" else "ok") );
      ("uptime_seconds", J.number (Clock.now_s () -. t.started_s));
      ("queue_depth", J.int (Job_queue.length t.queue));
      ("queue_capacity", J.int t.config.queue_capacity);
      ("in_flight", J.int (Atomic.get t.in_flight));
      ("workers", J.int t.config.workers);
      ("jobs_total", J.int (Job_table.total t.jobs));
      ("cache_size", J.int (Run_store.size t.runs));
      ("instances_resident", J.int (Instance_cache.resident t.instances));
      ("instance_cache_bytes", J.int (Instance_cache.bytes t.instances));
      (* instrumentation self-check: nonzero means some code path has
         mismatched begin/end spans and the trace is incomplete *)
      ("unbalanced_spans", J.int (Trace.unbalanced_spans ()));
      ("events_dropped",
        J.int (match Event_log.installed () with
          | Some l -> Event_log.dropped l
          | None -> 0));
      ("store", match t.config.store with
        | Some dir -> J.string dir
        | None -> "null");
    ]

(* /metrics content negotiation: a standard scraper announces
   text/plain (the exposition format media type); everything else keeps
   the original JSON document. *)
let wants_prometheus req =
  match Http.header req "accept" with
  | None -> false
  | Some accept ->
    String.split_on_char ',' (String.lowercase_ascii accept)
    |> List.exists (fun range ->
           match String.trim (List.hd (String.split_on_char ';' range)) with
           | "text/plain" | "application/openmetrics-text" -> true
           | _ -> false)

let prometheus_content_type = "text/plain; version=0.0.4; charset=utf-8"

let handle_request t fd (req : Http.request) tm =
  Metrics.incr "server.requests";
  let json = [ ("Content-Type", "application/json") ] in
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" ->
    send_response fd ~headers:json ~status:200 ~body:(healthz_body t) ()
  | "GET", "/metrics" ->
    if wants_prometheus req then
      send_response fd
        ~headers:[ ("Content-Type", prometheus_content_type) ]
        ~status:200 ~body:(Metrics.to_prometheus ()) ()
    else
      send_response fd ~headers:json ~status:200 ~body:(Metrics.to_json ()) ()
  | "GET", path
    when String.length path > 6 && String.sub path 0 6 = "/jobs/" -> (
    let id = String.sub path 6 (String.length path - 6) in
    match int_of_string_opt id with
    | None ->
      Metrics.incr "server.bad_requests";
      send_error fd ~headers:json 400 "job id must be an integer"
    | Some id -> (
      match Job_table.find t.jobs id with
      | Some job ->
        send_response fd ~headers:json ~status:200
          ~body:(Job_table.job_json t.jobs job) ()
      | None ->
        send_error fd ~headers:json 404 (Printf.sprintf "no such job %d" id)))
  | "POST", "/partition" -> serve t fd req tm (admit_partition t)
  | "POST", "/delta" ->
    Metrics.incr "delta.requests";
    serve t fd req tm (admit_delta t)
  | _, ("/healthz" | "/metrics" | "/partition" | "/delta") ->
    send_error fd ~headers:json 405 "method not allowed"
  | _ ->
    send_error fd ~headers:json 404
      (Printf.sprintf "no such endpoint %s" req.Http.path)

(* lingering close: after refusing a request mid-upload (413/400) the
   client may still be writing; closing immediately would RST the
   connection and destroy the error response before the client reads
   it.  Discard the remainder (bounded, short timeout) so the client
   sees a clean FIN after our response. *)
let drain_input fd =
  (try Unix.setsockopt_float fd SO_RCVTIMEO 2. with Unix.Unix_error _ -> ());
  let buf = Domain.DLS.get chunk_key in
  let rec loop budget =
    if budget > 0 then
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n -> loop (budget - n)
      | exception Unix.Unix_error _ -> ()
  in
  loop (256 * 1024 * 1024)

let handle_connection t (c : conn) =
  let t0 = Clock.now_s () in
  let tm = Job_table.timing ~accepted_s:c.accepted_s ~taken_s:t0 in
  let parser = Http.create_parser ~max_body:t.config.max_body () in
  (* the body buffer goes back to the worker once the response is
     written, or the connection is given up *)
  Fun.protect
    ~finally:(fun () ->
      Http.release parser;
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* a stuck or dead client must not wedge the worker: bound the
         time we wait for request bytes *)
      (try Unix.setsockopt_float c.fd SO_RCVTIMEO 30. with
      | Unix.Unix_error _ -> ());
      match
        Job_table.timed tm Decode (fun () -> read_request c.fd parser)
      with
      | `Closed -> ()
      | `Timeout ->
        Metrics.incr "server.bad_requests";
        send_error c.fd 408 "timed out reading the request"
      | `Http_error (Http.Body_too_large limit) ->
        Metrics.incr "server.rejected_oversized";
        send_error c.fd 413
          (Printf.sprintf "body exceeds the %d byte limit" limit);
        drain_input c.fd
      | `Http_error (Http.Bad_request msg) ->
        Metrics.incr "server.bad_requests";
        send_error c.fd 400 msg;
        drain_input c.fd
      | `Request req ->
        handle_request t c.fd req tm;
        Metrics.observe "server.request_seconds" (Clock.now_s () -. t0))

let worker_loop t () =
  let rec loop () =
    match Job_queue.pop t.queue with
    | None -> ()  (* closed and drained: clean exit *)
    | Some conn ->
      (* nothing a request does may kill the worker: parse errors are
         400s, engine failures are 500s, and anything that still
         escapes is logged and dropped with the connection *)
      (try handle_connection t conn
       with e ->
         Metrics.incr "server.failures";
         Log.err (fun m ->
             m "connection handler raised: %s" (Printexc.to_string e)));
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Accept loop and lifecycle                                           *)

let busy_response =
  Http.render_response
    ~headers:
      [ ("Content-Type", "application/json"); ("Retry-After", "1") ]
    ~status:503
    ~body:(error_body "queue full, retry later")
    ()

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select [ t.listen_fd; t.pipe_r ] [] [] (-1.) with
      | readable, _, _ ->
        if (not (Atomic.get t.stop)) && List.mem t.listen_fd readable then begin
          match Unix.accept t.listen_fd with
          | fd, _ ->
            let c = { fd; accepted_s = Clock.now_s () } in
            if not (Job_queue.try_push t.queue c) then begin
              (* backpressure: a full queue answers immediately with
                 Retry-After instead of queueing invisibly *)
              Metrics.incr "server.rejected_full";
              (try write_all fd busy_response 0 (String.length busy_response)
               with Unix.Unix_error _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ())
            end
          | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> ()
        end
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

let run t =
  Log.info (fun m ->
      m "listening on %s:%d (%d workers, queue %d%s)" t.config.host
        t.bound_port t.config.workers t.config.queue_capacity
        (match t.config.store with
        | Some dir -> ", store " ^ dir
        | None -> ""));
  let workers =
    Array.init t.config.workers (fun _ -> Domain.spawn (worker_loop t))
  in
  accept_loop t;
  (* graceful drain: stop admitting, finish everything admitted *)
  Log.info (fun m -> m "draining: %d queued" (Job_queue.length t.queue));
  Metrics.incr "server.drains";
  Job_queue.close t.queue;
  Array.iter Domain.join workers;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
  Run_store.close t.runs;
  Log.info (fun m -> m "drained, exiting")
