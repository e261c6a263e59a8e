(** Fleet client: shard batched partition jobs across several
    [hypart serve] daemons.

    A fleet is a fixed list of servers.  Each job has a preferred
    server — round-robin by job index, so a batch spreads evenly — and
    fails over to the next server in rotation when its preferred one is
    unreachable or still overloaded after the per-server retry budget
    ({!Client.with_retries}, which honours [503 Retry-After]
    backpressure).  A server that fails at the transport level is
    marked down and moves to the back of the candidate order until a
    later request to it succeeds; non-retriable HTTP errors (400, 413)
    are request-shaped and fail the job immediately without failover.

    Results are deterministic in content and order: a batch returns
    outcomes in job order, and each outcome is the daemon's seeded
    engine run ({!Hypart_evolve.Executor.job}) — identical bytes
    whichever server computed it — so a campaign's trajectory does not
    depend on fleet size or scheduling.  Daemon-side cache hits carry
    no assignment ([assignment = None]); {!executor} recomputes those
    locally. *)

type server = { host : string; port : int }

val parse_servers : string -> (server list, string) result
(** Parse ["host:port,host:port,…"] (a bare [":port"] or ["port"]
    defaults the host to 127.0.0.1).  [Error] names the offending
    entry. *)

(* kept: the host:port name fleet errors carry; tested directly *)
val address : server -> string
(** ["host:port"]. *)

type t

val create : server list -> t
(** A fleet over the given servers.  [Invalid_argument] when empty. *)

type outcome = Client.answer
(** The daemon's decoded answer; [served_by] names the daemon that
    answered, and [assignment] is [None] on a daemon-side cache hit. *)

val submit :
  ?attempts_per_server:int ->
  ?sleep:(float -> unit) ->
  ?preferred:int ->
  ?tolerance:float ->
  t ->
  body:string ->
  format:string ->
  Hypart_evolve.Executor.job ->
  (outcome, string) result
(** Submit one job, preferring server [preferred mod fleet-size]
    (default 0) and failing over through the rotation.  [tolerance]
    defaults to [0.02] (the daemon's default); [attempts_per_server]
    (default 3) bounds each server's retry loop; [sleep] is injectable
    for tests.  [Error] carries the last failure when every server is
    exhausted, or the daemon's non-retriable HTTP error. *)

val executor :
  ?attempts_per_server:int ->
  ?sleep:(float -> unit) ->
  ?tolerance:float ->
  t ->
  body:string ->
  format:string ->
  Hypart_evolve.Executor.t
(** A memetic campaign executor over the fleet.  Each batch of jobs on
    the instance [body] (in [format]) is submitted concurrently from up
    to twice the fleet size client domains, job [i] preferring server
    [i mod fleet-size] ({!submit}, with the same optional arguments);
    results are returned in job order regardless of completion order.
    A daemon-side cache hit carries no assignment, so that job is
    recomputed with {!Hypart_evolve.Executor.run_local}, which gives
    the same answer. *)
