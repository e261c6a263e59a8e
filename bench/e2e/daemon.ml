(* A `hypart serve` subprocess on an ephemeral loopback port, plus the
   request helpers the workloads share.  Every daemon started here is
   tracked, so an aborted run still terminates and reaps it. *)

module Client = Hypart_server.Client
module Http = Hypart_server.Http
module Json_in = Hypart_telemetry.Json_in
module Clock = Hypart_telemetry.Clock

type t = { pid : int; port : int; log : string }

let live : int list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  live := List.filter (( <> ) pid) !live;
  status

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !live

let () = at_exit kill_all

(* The daemon's temp files (request bodies are staged on disk for the
   netlist parsers) go under [tmpdir], inside the output directory. *)
let env ~tmpdir =
  Array.append
    [| "TMPDIR=" ^ tmpdir |]
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
          (Array.to_list (Unix.environment ()))))

let get t path = Client.http_request ~host:"127.0.0.1" ~port:t.port ~meth:"GET" ~path ()

let json_get t path =
  match get t path with
  | Ok r when r.Http.status = 200 -> Json_in.parse r.Http.resp_body
  | Ok r -> failwith (Printf.sprintf "GET %s: status %d" path r.Http.status)
  | Error e -> failwith (Printf.sprintf "GET %s: %s" path e)

(* the port of the "hypart daemon listening on HOST:PORT" banner *)
let banner_port log =
  match In_channel.with_open_bin log In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.rindex_opt line ':' with
        | Some j when String.starts_with ~prefix:"hypart daemon listening on" line ->
          int_of_string_opt
            (String.trim (String.sub line (j + 1) (String.length line - j - 1)))
        | _ -> None)
      (String.split_on_char '\n' text)

(* Spawn [hypart serve --port 0 ARGS], read the port from the banner and
   wait for /healthz to answer. *)
let start ~exe ~dir ~name args =
  let log = Filename.concat dir (name ^ ".log") in
  let fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let argv = Array.of_list ((exe :: "serve" :: "--port" :: "0" :: args)) in
  let tmpdir = Filename.concat dir "tmp" in
  (try Unix.mkdir tmpdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let pid = Unix.create_process_env exe argv (env ~tmpdir) Unix.stdin fd fd in
  Unix.close fd;
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait_port () =
    match banner_port log with
    | Some port -> port
    | None ->
      if Unix.gettimeofday () > deadline then failwith ("daemon never announced its port; see " ^ log)
      else (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | p, _ when p = pid ->
          live := List.filter (( <> ) pid) !live;
          failwith ("daemon exited during start-up; see " ^ log)
        | _ ->
          Unix.sleepf 0.002;
          wait_port ())
  in
  let t = { pid; port = wait_port (); log } in
  let rec wait_healthy () =
    match get t "/healthz" with
    | Ok r when r.Http.status = 200 -> ()
    | _ when Unix.gettimeofday () > deadline -> failwith "daemon never became healthy"
    | _ ->
      Unix.sleepf 0.002;
      wait_healthy ()
  in
  wait_healthy ();
  t

(* peak resident set (VmHWM) of a live process, in MiB *)
let peak_rss_mb pid =
  let status = In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all in
  match
    List.find_map
      (fun l -> if String.starts_with ~prefix:"VmHWM:" l then Some l else None)
      (String.split_on_char '\n' status)
  with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> 0.

(* restart a process's peak-RSS count from its current RSS (Linux
   clear_refs 5), so VmHWM covers only what follows; a no-op where the
   kernel refuses *)
let reset_peak_rss pid =
  try
    Out_channel.with_open_gen [ Open_wronly ] 0o200 (Printf.sprintf "/proc/%d/clear_refs" pid)
      (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* SIGTERM drains the daemon (trace and event files are written by its
   exit hooks); [true] when it exited 0 *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap t.pid = Unix.WEXITED 0

(* One timed request: (response, seconds from send to full response). *)
let request t ~path ?(headers = []) ~body () =
  let t0 = Clock.now_s () in
  let r = Client.http_request ~host:"127.0.0.1" ~port:t.port ~meth:"POST" ~path ~headers ~body () in
  (r, Clock.now_s () -. t0)

(* the /metrics counters, by name *)
let counters t =
  match Json_in.member "counters" (json_get t "/metrics") with
  | Some (Json_in.Obj kvs) ->
    List.filter_map (function k, Json_in.Num v -> Some (k, v) | _ -> None) kvs
  | _ -> []

(* one numeric field of /healthz *)
let healthz_num t key =
  match Json_in.member key (json_get t "/healthz") with Some (Json_in.Num f) -> f | _ -> 0.
