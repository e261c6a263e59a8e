module Parallel = Hypart_engine.Parallel
module Executor = Hypart_evolve.Executor
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
  match List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' spec) with
  | [] -> Error "no servers given"
  | entries ->
    (* the first offending entry is the one reported *)
    List.fold_left
      (fun acc entry ->
        Result.bind acc (fun l -> Result.map (fun s -> s :: l) (parse_server entry)))
      (Ok []) entries
    |> Result.map List.rev

type t = { fleet : server array; down : bool Atomic.t array }

let create servers =
  if servers = [] then invalid_arg "Fleet.create: no servers";
  let fleet = Array.of_list servers in
  { fleet; down = Array.map (fun _ -> Atomic.make false) fleet }

type outcome = Client.answer

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
    ?(tolerance = 0.02) t ~body ~format (job : Executor.job) =
  let n = Array.length t.fleet in
  let path =
    Client.partition_path ~engine:job.engine ~seed:job.seed ~starts:job.starts
      ~tolerance ~format ()
  in
  let rec try_servers last = function
    | [] -> last
    | idx :: rest -> (
      let s = t.fleet.(idx) in
      let fail fmt = Printf.ksprintf (fun m -> Error (address s ^ ": " ^ m)) fmt in
      match
        Client.post ~attempts:attempts_per_server ?sleep ~host:s.host
          ~port:s.port ~path ~body ()
      with
      | (Ok _ | Error (Client.Malformed _)) as answer ->
        Atomic.set t.down.(idx) false;
        Metrics.incr "fleet.jobs";
        Result.map_error Client.failure_message answer
      | Error (Client.Refused { status; _ }) when Client.retryable_status status ->
        (* still overloaded / expiring after the retry budget: the
           server is alive, so don't mark it down — just fail over *)
        Metrics.incr "fleet.failovers";
        if rest = [] then
          fail "HTTP %d after %d attempts" status attempts_per_server
        else try_servers (fail "HTTP %d" status) rest
      | Error (Client.Refused { status; resp_body; _ }) ->
        (* non-retriable HTTP error: the request itself is bad, so the
           answer is the same everywhere — no failover *)
        Metrics.incr "fleet.rejected";
        fail "HTTP %d %s" status (String.trim resp_body)
      | Error (Client.Unreachable msg) ->
        if not (Atomic.exchange t.down.(idx) true) then
          Metrics.incr "fleet.down_marks";
        Metrics.incr "fleet.failovers";
        try_servers (fail "%s" msg) rest)
  in
  try_servers
    (Error "fleet exhausted")
    (candidate_order t ~preferred:(((preferred mod n) + n) mod n))

(* A daemon-side cache hit carries no assignment; the seeded job is a
   pure function of (engine, seed, starts), so a local recompute gives
   the daemon's answer bit for bit. *)
let executor ?attempts_per_server ?sleep ?tolerance t ~body ~format =
  let n = Array.length t.fleet in
  let domains = min (Parallel.recommended_domains ()) (2 * n) in
  Executor.of_fun ~name:"fleet" (fun problem jobs ->
      let jobs = Array.of_list jobs in
      Parallel.map_seeds ~domains
        ~seeds:(List.init (Array.length jobs) Fun.id)
        (fun i ->
          Result.map
            (fun (o : outcome) ->
              match o.Client.assignment with
              | Some assignment ->
                {
                  Executor.cut = o.Client.cut;
                  legal = o.Client.legal;
                  seconds = o.Client.seconds;
                  assignment;
                  stats = [];
                }
              | None -> Executor.run_local problem jobs.(i))
            (submit ?attempts_per_server ?sleep ~preferred:(i mod n)
               ?tolerance t ~body ~format jobs.(i))))
