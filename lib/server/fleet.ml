module Parallel = Hypart_engine.Parallel
module Metrics = Hypart_telemetry.Metrics

type server = { host : string; port : int }

let address s = Printf.sprintf "%s:%d" s.host s.port

let parse_server entry =
  let entry = String.trim entry in
  let host, port_s =
    match String.rindex_opt entry ':' with
    | Some i ->
      (String.sub entry 0 i, String.sub entry (i + 1) (String.length entry - i - 1))
    | None -> ("", entry)
  in
  let host = if host = "" then "127.0.0.1" else host in
  match int_of_string_opt port_s with
  | Some port when port > 0 && port < 65536 -> Ok { host; port }
  | _ -> Error (Printf.sprintf "bad server %S (want host:port)" entry)

let parse_servers spec =
  let entries =
    List.filter
      (fun s -> String.trim s <> "")
      (String.split_on_char ',' spec)
  in
  if entries = [] then Error "no servers given"
  else
    List.fold_left
      (fun acc entry ->
        match (acc, parse_server entry) with
        | Error _, _ -> acc
        | _, (Error _ as e) -> e
        | Ok servers, Ok s -> Ok (s :: servers))
      (Ok []) entries
    |> Result.map List.rev

type t = { fleet : server array; down : bool Atomic.t array }

let create servers =
  if servers = [] then invalid_arg "Fleet.create: no servers";
  let fleet = Array.of_list servers in
  { fleet; down = Array.map (fun _ -> Atomic.make false) fleet }

let servers t = Array.to_list t.fleet

type job = { engine : string; seed : int; starts : int }

type outcome = {
  cut : int;
  legal : bool;
  seconds : float;
  assignment : int array option;
  cached : bool;
  served_by : string;
}

(* The daemon's out=plain contract: scalars in X-Hypart-* headers, the
   assignment as one side per line in the body (empty on a daemon-side
   cache hit). *)
let parse_outcome ~served_by (resp : Http.response) =
  let hdr name = Http.resp_header resp name in
  let int_hdr name =
    match Option.bind (hdr name) int_of_string_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: missing %s header" served_by name)
  in
  let bool_hdr name = hdr name = Some "true" in
  match int_hdr "x-hypart-cut" with
  | Error _ as e -> e
  | Ok cut ->
    let legal = bool_hdr "x-hypart-legal" in
    let cached = bool_hdr "x-hypart-cached" in
    let seconds =
      Option.value ~default:0.
        (Option.bind (hdr "x-hypart-seconds") float_of_string_opt)
    in
    let assignment =
      if String.trim resp.Http.resp_body = "" then Ok None
      else
        let lines =
          List.filter
            (fun l -> l <> "")
            (String.split_on_char '\n' resp.Http.resp_body)
        in
        let sides = Array.make (List.length lines) 0 in
        let ok =
          List.fold_left
            (fun (i, ok) line ->
              match int_of_string_opt (String.trim line) with
              | Some s ->
                sides.(i) <- s;
                (i + 1, ok)
              | None -> (i + 1, false))
            (0, true) lines
          |> snd
        in
        if ok then Ok (Some sides)
        else Error (Printf.sprintf "%s: unparsable assignment body" served_by)
    in
    Result.map
      (fun assignment ->
        { cut; legal; seconds; assignment; cached; served_by })
      assignment

let request_path ~tolerance ~format job =
  Printf.sprintf "/partition?engine=%s&seed=%d&starts=%d&tol=%.9g&out=plain&format=%s"
    job.engine job.seed job.starts tolerance format

(* Candidate order for one submission: rotation from the preferred
   server, servers currently marked down moved to the back (they are
   still tried last, so a recovered daemon rejoins the fleet without
   any explicit health-check pass). *)
let candidate_order t ~preferred =
  let n = Array.length t.fleet in
  let rotation = List.init n (fun k -> (preferred + k) mod n) in
  let up, down_ = List.partition (fun i -> not (Atomic.get t.down.(i))) rotation in
  up @ down_

let submit ?(attempts_per_server = 3) ?sleep ?(preferred = 0)
    ?(tolerance = 0.02) t ~body ~format job =
  let n = Array.length t.fleet in
  let path = request_path ~tolerance ~format job in
  let rec try_servers last = function
    | [] -> last
    | idx :: rest -> (
      let s = t.fleet.(idx) in
      let served_by = address s in
      let headers = [ ("X-Hypart-Request-Id", Client.mint_request_id ()) ] in
      let result =
        Client.with_retries ~attempts:attempts_per_server ?sleep (fun () ->
            Client.http_request ~host:s.host ~port:s.port ~meth:"POST"
              ~path ~headers ~body ())
      in
      match result with
      | Ok resp when resp.Http.status = 200 ->
        Atomic.set t.down.(idx) false;
        Metrics.incr "fleet.jobs";
        parse_outcome ~served_by resp
      | Ok resp when Client.retryable_status resp.Http.status ->
        (* still overloaded / expiring after the retry budget: the
           server is alive, so don't mark it down — just fail over *)
        Metrics.incr "fleet.failovers";
        if rest = [] then
          Error
            (Printf.sprintf "%s: HTTP %d after %d attempts" served_by
               resp.Http.status attempts_per_server)
        else
          try_servers
            (Error (Printf.sprintf "%s: HTTP %d" served_by resp.Http.status))
            rest
      | Ok resp ->
        (* non-retriable HTTP error: the request itself is bad, so the
           answer is the same everywhere — no failover *)
        Metrics.incr "fleet.rejected";
        Error
          (Printf.sprintf "%s: HTTP %d %s" served_by resp.Http.status
             (String.trim resp.Http.resp_body))
      | Error msg ->
        if not (Atomic.exchange t.down.(idx) true) then
          Metrics.incr "fleet.down_marks";
        Metrics.incr "fleet.failovers";
        try_servers (Error (Printf.sprintf "%s: %s" served_by msg)) rest)
  in
  try_servers
    (Error "fleet exhausted")
    (candidate_order t ~preferred:(((preferred mod n) + n) mod n))

let submit_batch ?attempts_per_server ?sleep ?tolerance ?domains t ~body
    ~format jobs =
  let n = Array.length t.fleet in
  let jobs = Array.of_list jobs in
  let indices = List.init (Array.length jobs) Fun.id in
  let domains =
    match domains with
    | Some d -> d
    | None -> min (Parallel.recommended_domains ()) (max 1 (2 * n))
  in
  Parallel.map_seeds ~domains ~seeds:indices (fun i ->
      submit ?attempts_per_server ?sleep ~preferred:(i mod n) ?tolerance t
        ~body ~format jobs.(i))
