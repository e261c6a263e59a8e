module Rng = Hypart_rng.Rng
module Io = Hypart_hypergraph.Netlist_io
module Bookshelf = Hypart_hypergraph.Bookshelf
module Instance_store = Hypart_hypergraph.Instance_store
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Engine = Hypart_engine.Engine
module Machine = Hypart_engine.Machine
module Parallel = Hypart_engine.Parallel
module Cancel = Hypart_engine.Cancel
module Delta = Hypart_delta.Delta
module Patch = Hypart_delta.Patch
module Eco = Hypart_delta.Eco
module Cache = Hypart_lab.Cache
module Run_store = Hypart_lab.Run_store
module Fingerprint = Hypart_lab.Fingerprint
module Provenance = Hypart_lab.Provenance
module Tel = Hypart_telemetry.Control
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace
module Event_log = Hypart_telemetry.Event_log
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
  cache : Cache.t;
  instances : Instance_cache.t;
  store : Run_store.t option;
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
     collection is on for the whole process lifetime *)
  Tel.enable ();
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
  let cache =
    match config.store with
    | Some dir -> Cache.of_store dir
    | None -> Cache.in_memory ()
  in
  let store = Option.map Run_store.open_store config.store in
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
    cache;
    instances = Instance_cache.create ~max_bytes:config.instance_cache_bytes ();
    store;
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
let send_response fd ?headers ~status ~body () =
  let bytes = Http.render_response ?headers ~status ~body () in
  try write_all fd bytes 0 (String.length bytes) with Unix.Unix_error _ -> ()

let continue_line = "HTTP/1.1 100 Continue\r\n\r\n"

let read_request fd max_body =
  let parser = Http.create_parser ~max_body () in
  let buf = Bytes.create 8192 in
  let continued = ref false in
  let rec loop () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> `Closed
    | n -> (
      match Http.feed parser (Bytes.sub_string buf 0 n) with
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
  if tolerance <= 0. then bad "tol must be positive";
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

(* ------------------------------------------------------------------ *)
(* Netlist decoding: the body is written to a temp file so the hardened
   Netlist_io / Bookshelf parsers (with their located errors) are
   reused verbatim. *)

(* index of the first [needle] in [hay] at or after [from] *)
let rec find_sub ?(from = 0) hay needle =
  let n = String.length needle in
  if from + n > String.length hay then None
  else if String.sub hay from n = needle then Some from
  else find_sub ~from:(from + 1) hay needle

let formats =
  [ ("hgr", `Hgr); ("hgrb", `Hgrb); ("netd", `Netd); ("bookshelf", `Bookshelf) ]

let format_tag format = fst (List.find (fun (_, f) -> f = format) formats)

(* yields the hypergraph together with its lab fingerprint: text
   formats are fingerprinted after parsing; the packed binary format
   carries its fingerprint in the header (written by [hypart pack],
   where it was computed from the same pin arrays), so a mmap-loaded
   instance skips the refingerprint entirely *)
let decode_netlist body format =
  let base = Filename.temp_file "hypart_serve" "" in
  let written = ref [ base ] in
  let write ext contents =
    let path = base ^ ext in
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    written := path :: !written;
    path
  in
  let fingerprinted h = (h, Fingerprint.of_instance h) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !written)
    (fun () ->
      match format with
      | `Hgr -> fingerprinted (Io.read_hgr (write ".hgr" body))
      | `Hgrb -> Instance_store.load (write ".hgrb" body)
      | `Netd -> fingerprinted (fst (Io.read_netd (write ".netD" body)))
      | `Bookshelf -> (
        (* the two Bookshelf slots travel concatenated; the ".nets"
           slot starts at its own "UCLA nets" header line *)
        let marker = "UCLA nets" in
        let split_at =
          if String.starts_with ~prefix:marker body then Some 0
          else Option.map succ (find_sub body ("\n" ^ marker))
        in
        match split_at with
        | None ->
          raise
            (Bookshelf.Parse_error
               "bookshelf body must contain a \"UCLA nets\" section")
        | Some i ->
          ignore (write ".nodes" (String.sub body 0 i));
          ignore (write ".nets" (String.sub body i (String.length body - i)));
          fingerprinted (fst (Bookshelf.read ~basename:base))))

(* request-body content cache: a repeat submission of the same bytes
   (common when a campaign resubmits one huge instance under many
   seeds) reuses the parsed hypergraph and fingerprint *)
let load_instance t body format =
  let ckey = Instance_cache.key ~format:(format_tag format) ~body in
  match Instance_cache.find t.instances ckey with
  | Some (h, fp) ->
    Metrics.incr "server.instance_cache_hits";
    (h, fp, "cache")
  | None ->
    let h, fp = decode_netlist body format in
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
  done_fields : (string * Event_log.value) list;  (** on [request.done] *)
  fresh_headers : (string * string) list;
  fresh_json : (string * string) list;
}

type job_spec = {
  engine : string;
  config_fp : string;
  instance_fp : string;
  starts : int;
  admitted_fields : (string * Event_log.value) list;
      (** on [request.admitted] *)
  headers : (string * string) list;  (** on every 200 answer *)
  json : (string * string) list;  (** on every JSON answer *)
  run : unit -> fresh;
}

let respond fd p (job : Job_table.job) spec ~cached ~cut ~legal ~seconds
    ?(headers = []) ?(json = []) assignment =
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
  match p.out with
  | `Plain ->
    (* body is exactly a Netlist_io partition file (one side per line);
       all metadata travels in X-Hypart-* headers.  A cached record has
       no assignment — the body is empty and the headers say so. *)
    let body =
      match assignment with
      | Some sides ->
        let b = Buffer.create (2 * Array.length sides) in
        Array.iter
          (fun s ->
            Buffer.add_string b (string_of_int s);
            Buffer.add_char b '\n')
          sides;
        Buffer.contents b
      | None -> ""
    in
    send_response fd ~headers ~status:200 ~body ()
  | `Json ->
    let fields =
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
      @
      match assignment with
      | Some sides when p.want_assignment ->
        [ ("assignment", J.arr (Array.to_list (Array.map J.int sides))) ]
      | _ -> []
    in
    send_response fd ~headers ~status:200 ~body:(J.obj fields) ()

let add_in_flight t d =
  let n = Atomic.fetch_and_add t.in_flight d + d in
  Metrics.set_gauge "server.in_flight" (float_of_int n)

let serve t fd (req : Http.request) accepted_s admit =
  let rid = request_id_of req in
  let event name fields =
    Event_log.record name (("request_id", Event_log.Str rid) :: fields)
  in
  let error =
    send_error fd
      ~headers:[ ("Content-Type", "application/json"); (request_id_header, rid) ]
  in
  match
    let p = parse_params req in
    (p, admit ~event req p)
  with
  | exception Reject (status, msg) ->
    Metrics.incr "server.bad_requests";
    event "request.rejected" [ ("error", Event_log.Str msg) ];
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
    let jobf = [ ("job", Event_log.Int job.Job_table.id) ] in
    event "request.admitted"
      (jobf
      @ [ ("engine", Event_log.Str spec.engine); ("seed", Event_log.Int p.seed) ]
      @ spec.admitted_fields
      @ [ ("key", Event_log.Str key) ]);
    let finish status ~cut ~legal ~seconds =
      job.Job_table.cut <- Some cut;
      job.Job_table.legal <- Some legal;
      job.Job_table.seconds <- seconds;
      Job_table.update t.jobs job status
    in
    let deadline_abs = Option.map (fun d -> accepted_s +. d) p.deadline_s in
    let expired () =
      match deadline_abs with Some dl -> Clock.now_s () > dl | None -> false
    in
    let deadline_exceeded where when_ =
      Metrics.incr "server.deadline_exceeded";
      Job_table.update t.jobs job Job_table.Deadline_exceeded;
      event "request.deadline" (jobf @ [ ("where", Event_log.Str where) ]);
      error 504 ("deadline exceeded " ^ when_)
    in
    match Cache.find t.cache ~key with
    | Some r ->
      (* duplicate submission: answered from the content-addressed
         cache, zero engine runs *)
      Metrics.incr "server.cache_served";
      let cut = r.Run_store.cut and legal = r.Run_store.legal in
      let seconds = r.Run_store.seconds in
      finish Job_table.Served_cached ~cut ~legal ~seconds;
      event "request.dedup_hit" (jobf @ [ ("cut", Event_log.Int cut) ]);
      respond fd p job spec ~cached:true ~cut ~legal ~seconds None
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
              (fun () -> Cancel.with_hook expired spec.run))
      with
      | f ->
        let cut = f.result.Engine.Result.cut in
        let legal = f.result.Engine.Result.legal in
        let record =
          {
            Run_store.engine = spec.engine;
            config = spec.config_fp;
            instance = spec.instance_fp;
            seed = p.seed;
            cut;
            legal;
            seconds = f.seconds;
            machine_factor = Provenance.machine_factor ();
            git = Provenance.git_describe ();
          }
        in
        Cache.add t.cache record;
        Option.iter (fun store -> Run_store.append store record) t.store;
        Metrics.incr "server.jobs_executed";
        Metrics.observe "server.engine_seconds" f.seconds;
        finish Job_table.Done ~cut ~legal ~seconds:f.seconds;
        event "request.done"
          (jobf
          @ [
              ("cut", Event_log.Int cut);
              ("legal", Event_log.Bool legal);
              ("seconds", Event_log.Num f.seconds);
            ]
          @ f.done_fields);
        respond fd p job spec ~cached:false ~cut ~legal ~seconds:f.seconds
          ~headers:f.fresh_headers ~json:f.fresh_json
          (Some (Bipartition.assignment f.result.Engine.Result.solution))
      | exception Cancel.Cancelled -> deadline_exceeded "run" "during the run"
      | exception e ->
        Metrics.incr "server.failures";
        let msg = Printexc.to_string e in
        Log.err (fun m -> m "job %d failed: %s" job.Job_table.id msg);
        Job_table.update t.jobs job (Job_table.Failed msg);
        event "request.failed" (jobf @ [ ("error", Event_log.Str msg) ]);
        error 500 ("engine failed: " ^ msg)))

(* ------------------------------------------------------------------ *)
(* POST /partition                                                     *)

(* the server-side config fingerprint: everything that parameterizes a
   run besides engine name, instance content and seed.  "proto" is a
   version stamp so a future protocol change invalidates old keys
   instead of aliasing them. *)
let config_fingerprint ~tolerance ~starts =
  Fingerprint.of_pairs
    [
      ("proto", "serve-v1");
      ("tolerance", Printf.sprintf "%.9g" tolerance);
      ("starts", string_of_int starts);
    ]

let run_engine engine ~seed ~starts problem =
  if starts = 1 then
    (* the CLI's sequential single-start path, bit for bit *)
    Machine.cpu_time (fun () -> Engine.run engine (Rng.create seed) problem None)
  else begin
    (* the CLI's seeded multistart: one derived seed per start, so the
       winner is identical to `partition --domains D` for every D *)
    let seeds = List.init starts (fun i -> seed + i) in
    let (_seed, best), records = Engine.multistart_seeds engine problem ~seeds in
    let seconds =
      List.fold_left (fun acc r -> acc +. r.Engine.start_seconds) 0. records
    in
    (best, seconds)
  end

let admit_partition t ~event (req : Http.request) p =
  let engine = param_engine req "engine" "mlclip" in
  let starts = param_int req "starts" 1 in
  if starts < 1 then bad "starts must be >= 1";
  let format = param_choice req "format" formats in
  let h, instance, source =
    try load_instance t req.Http.body format with
    | Io.Parse_error msg
    | Bookshelf.Parse_error msg
    | Instance_store.Format_error msg
    | Invalid_argument msg ->
      bad ("netlist: " ^ msg)
  in
  event "request.instance_loaded"
    [
      ("source", Event_log.Str source);
      ("format", Event_log.Str (format_tag format));
      ("instance", Event_log.Str instance);
      ("vertices", Event_log.Int (Hypart_hypergraph.Hypergraph.num_vertices h));
      ("edges", Event_log.Int (Hypart_hypergraph.Hypergraph.num_edges h));
      ("pins", Event_log.Int (Hypart_hypergraph.Hypergraph.num_pins h));
    ];
  {
    engine = Engine.name engine;
    config_fp = config_fingerprint ~tolerance:p.tolerance ~starts;
    instance_fp = instance;
    starts;
    admitted_fields = [ ("starts", Event_log.Int starts) ];
    (* the instance fingerprint lets the client name this instance as
       the base of a later POST /delta without re-deriving it locally *)
    headers = [ ("X-Hypart-Instance", instance) ];
    json = [ ("starts", J.int starts) ];
    run =
      (fun () ->
        let problem = Problem.make ~tolerance:p.tolerance h in
        let result, seconds = run_engine engine ~seed:p.seed ~starts problem in
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

let admit_delta t ~event (req : Http.request) p =
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
    try Delta.of_string ~source:"<delta>" req.Http.body
    with Delta.Parse_error msg -> bad ("delta: " ^ msg)
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
    match Instance_cache.find_fingerprint t.instances base_fp with
    | Some base -> base
    | None ->
      raise (Reject (404, Printf.sprintf "base instance %s is not resident; \
                                          submit it first via POST /partition"
                          base_fp))
  in
  let patch =
    try Patch.apply ~base ~base_fingerprint:base_fp delta with
    | Patch.Apply_error msg | Invalid_argument msg -> bad ("delta: " ^ msg)
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
      ("base", Event_log.Str base_fp);
      ("instance", Event_log.Str patch.Patch.fingerprint);
      ("ops", Event_log.Int (Delta.num_ops delta));
      ("pins_touched", Event_log.Int stats.Patch.pins_touched);
      ("nets_added", Event_log.Int stats.Patch.nets_added);
      ("nets_removed", Event_log.Int stats.Patch.nets_removed);
      ("cells_added", Event_log.Int stats.Patch.cells_added);
      ("cells_removed", Event_log.Int stats.Patch.cells_removed);
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
              ("mode", Event_log.Str mode);
              ("free_vertices", Event_log.Int o.Eco.free_vertices);
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
      ("cache_size", J.int (Cache.size t.cache));
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
    let accept = String.lowercase_ascii accept in
    find_sub accept "text/plain" <> None || find_sub accept "openmetrics" <> None

let prometheus_content_type = "text/plain; version=0.0.4; charset=utf-8"

let handle_request t fd (req : Http.request) accepted_s =
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
  | "POST", "/partition" -> serve t fd req accepted_s (admit_partition t)
  | "POST", "/delta" ->
    Metrics.incr "delta.requests";
    serve t fd req accepted_s (admit_delta t)
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
  let buf = Bytes.create 65536 in
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
  Fun.protect
    ~finally:(fun () -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* a stuck or dead client must not wedge the worker: bound the
         time we wait for request bytes *)
      (try Unix.setsockopt_float c.fd SO_RCVTIMEO 30. with
      | Unix.Unix_error _ -> ());
      match read_request c.fd t.config.max_body with
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
        handle_request t c.fd req c.accepted_s;
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
  Option.iter Run_store.close t.store;
  Log.info (fun m -> m "drained, exiting")
