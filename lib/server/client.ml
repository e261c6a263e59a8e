type response = Http.response = {
  status : int;
  resp_headers : (string * string) list;
  resp_body : string;
}

(* Client-side request ids: decimal integers below 2^53, so the daemon
   can stamp them into float-valued trace-span args exactly.  Wall-time
   microseconds plus a pid/counter tag keeps concurrent clients apart. *)
let rid_counter = Atomic.make 0

let mint_request_id () =
  let us = Int64.of_float (Unix.gettimeofday () *. 1e6) in
  let c = Atomic.fetch_and_add rid_counter 1 in
  let tag = (Unix.getpid () lxor (c * 131)) land 0x3ff in
  Int64.to_string
    (Int64.logand
       (Int64.add (Int64.mul us 1024L) (Int64.of_int tag))
       0x1F_FFFF_FFFF_FFFFL)

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s off len

(* the response is read straight into one [Bytes] that doubles when
   full, and the parser reads it in place up to its filled length: no
   per-read chunk, no [Buffer], no whole-response string.  It starts at
   1 KiB, below the minor heap's size limit, so a short answer (a dedup
   hit's is ~300 bytes) allocates nothing on the major heap; a fresh
   answer with the assignment doubles its way up.  A daemon that
   answers without reading the whole request (the queue-full 503)
   closes with unread bytes pending, so the connection may end in a
   reset rather than EOF; what arrived before it is still the complete
   response. *)
let read_to_eof fd =
  let rec loop buf len =
    let buf =
      if len < Bytes.length buf then buf
      else begin
        let grown = Bytes.create (2 * Bytes.length buf) in
        Bytes.blit buf 0 grown 0 len;
        grown
      end
    in
    match Unix.read fd buf len (Bytes.length buf - len) with
    | 0 -> (buf, len)
    | n -> loop buf (len + n)
    | exception Unix.Unix_error (EINTR, _, _) -> loop buf len
    | exception Unix.Unix_error (ECONNRESET, _, _) when len > 0 -> (buf, len)
  in
  loop (Bytes.create 1024) 0

let http_request ~host ~port ~meth ~path ?(headers = []) ?(body = "") () =
  match Unix.socket PF_INET SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "socket: %s" (Unix.error_message e))
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match
          Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string host, port))
        with
        | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "connect %s:%d: %s" host port
               (Unix.error_message e))
        | () -> (
          let b = Buffer.create 1024 in
          Buffer.add_string b
            (Printf.sprintf "%s %s HTTP/1.1\r\n" meth path);
          Buffer.add_string b (Printf.sprintf "Host: %s:%d\r\n" host port);
          List.iter
            (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
            headers;
          Buffer.add_string b
            (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
          Buffer.add_string b "Connection: close\r\n\r\n";
          let head = Buffer.contents b in
          (* the head and the body go out as two writes, the body from
             the caller's own string; without Nagle's algorithm the
             second write is not held back waiting for the daemon to
             acknowledge the first *)
          Unix.setsockopt fd TCP_NODELAY true;
          (* a request the daemon refuses mid-upload (413) ends our
             write early; the response that explains why is still on
             the socket, so prefer it over the write error *)
          let write_err =
            try
              write_all fd head 0 (String.length head);
              write_all fd body 0 (String.length body);
              None
            with Unix.Unix_error (e, _, _) -> Some (Unix.error_message e)
          in
          (* the daemon is Connection: close — EOF delimits the
             response even without a Content-Length *)
          match read_to_eof fd with
          | exception Unix.Unix_error (e, _, _) ->
            Error
              (Printf.sprintf "i/o %s:%d: %s" host port
                 (Unix.error_message e))
          | _, 0 ->
            Error
              (Printf.sprintf "i/o %s:%d: %s" host port
                 (Option.value ~default:"empty response" write_err))
          | buf, len -> Http.parse_response_bytes buf len))

let backoff_delay ?(base = 0.25) ?(cap = 8.0) ~attempt ~retry_after jitter =
  let u = Float.min cap (base *. Float.pow 2. (float_of_int attempt)) in
  (* equal jitter: half the window is guaranteed, half is randomized,
     so concurrent clients spread out instead of retrying in lockstep *)
  let d = (u /. 2.) +. (Float.max 0. (Float.min 1. jitter) *. u /. 2.) in
  match retry_after with None -> d | Some ra -> Float.max ra d

(* Retriable statuses are the transient ones the daemon emits under
   load: queue-full 503 and deadline 504 (a fresh submission restarts
   the deadline clock).  Everything else — 400 bad request, 413 too
   large, and any success — reflects the request itself, so retrying
   verbatim cannot help and the client fails fast. *)
let retryable_status status = status = 502 || status = 503 || status = 504

let with_retries ?(attempts = 6) ?base ?cap ?(sleep = Unix.sleepf)
    ?(rng = fun () -> 0.5) f =
  let rec go attempt last =
    if attempt >= attempts then last
    else
      match f () with
      | Ok resp when not (retryable_status resp.status) -> Ok resp
      | outcome ->
        (* retryable: queue-full 503, deadline 504, or a transport
           error (daemon not up yet / connection reset) *)
        let retry_after =
          match outcome with
          | Ok resp ->
            Option.bind (Http.resp_header resp "retry-after") (fun s ->
                float_of_string_opt (String.trim s))
          | Error _ -> None
        in
        if attempt = attempts - 1 then outcome
        else begin
          sleep (backoff_delay ?base ?cap ~attempt ~retry_after (rng ()));
          go (attempt + 1) outcome
        end
  in
  go 0 (Error "no attempts made")

let partition_path ~engine ~seed ~starts ~tolerance ~format ?(deadline_ms = 0) () =
  Printf.sprintf "/partition?engine=%s&seed=%d&starts=%d&tol=%.9g&format=%s&out=plain%s"
    engine seed starts tolerance format
    (if deadline_ms > 0 then Printf.sprintf "&deadline_ms=%d" deadline_ms else "")

type answer = {
  cut : int;
  legal : bool;
  cached : bool;
  seconds : float;
  job : int;
  request_id : string;
  assignment : int array option;
  served_by : string;
  headers : (string * string) list;
}

let header a name = List.assoc_opt (String.lowercase_ascii name) a.headers

(* The daemon's out=plain contract: scalars in X-Hypart-* headers, the
   assignment as one side per line in the body (empty on a daemon-side
   cache hit). *)
let decode_answer ~served_by ~request_id resp =
  let hdr = Http.resp_header resp in
  let flag name = hdr name = Some "true" in
  let int_hdr name k =
    match Option.bind (hdr name) int_of_string_opt with
    | Some v -> k v
    | None -> Error (Printf.sprintf "%s: missing %s header" served_by name)
  in
  let side line = match String.trim line with "" -> None | s -> Some (int_of_string s) in
  match List.filter_map side (String.split_on_char '\n' resp.resp_body) with
  | exception Failure _ -> Error (Printf.sprintf "%s: unparsable assignment body" served_by)
  | sides ->
    int_hdr "x-hypart-cut" @@ fun cut ->
    int_hdr "x-hypart-job" @@ fun job ->
    let seconds = Option.bind (hdr "x-hypart-seconds") float_of_string_opt in
    Ok
      {
        cut;
        legal = flag "x-hypart-legal";
        cached = flag "x-hypart-cached";
        seconds = Option.value ~default:0. seconds;
        job;
        request_id = Option.value ~default:request_id (hdr "x-hypart-request-id");
        assignment = (if sides = [] then None else Some (Array.of_list sides));
        served_by;
        headers = resp.resp_headers;
      }

type failure = Unreachable of string | Refused of response | Malformed of string

let failure_message = function
  | Unreachable msg | Malformed msg -> msg
  | Refused r ->
    Printf.sprintf "HTTP %d %s\n%s" r.status (Http.status_text r.status) r.resp_body

let post ?attempts ?sleep ~host ~port ~path ~body () =
  (* one id for every retry, so daemon-side spans and flight-recorder
     events correlate with this submission *)
  let request_id = mint_request_id () in
  let headers = [ ("X-Hypart-Request-Id", request_id) ] in
  match
    with_retries ?attempts ?sleep (fun () ->
        http_request ~host ~port ~meth:"POST" ~path ~headers ~body ())
  with
  | Error msg -> Error (Unreachable msg)
  | Ok resp when resp.status <> 200 -> Error (Refused resp)
  | Ok resp ->
    decode_answer ~served_by:(Printf.sprintf "%s:%d" host port) ~request_id resp
    |> Result.map_error (fun msg -> Malformed msg)
