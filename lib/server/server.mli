(** The partitioning service daemon ([hypart serve]).

    A single-binary HTTP/1.1 server over stdlib [Unix] sockets: an
    accept loop admits connections into a bounded {!Job_queue}
    (backpressure: a full queue is answered [503 Retry-After]
    immediately, never queued invisibly), and a pool of worker domains
    pops connections, parses requests with the incremental {!Http}
    codec and runs partitioning jobs.

    Served results are bit-identical to offline runs: a request with
    [starts=n] executes [Engine.multistart_seeds ~seed ~starts:n] on
    its worker domain, exactly as [hypart partition --starts n] does at
    every [--domains] and as a memetic evaluation of the same job does
    — deterministic regardless of the worker pool size.

    Duplicate submissions are content-addressed through a
    {!Hypart_lab.Run_store}: the key combines engine name, config
    fingerprint ({!Hypart_lab.Fingerprint.seeded_config}, shared with
    memetic evaluations), instance fingerprint and seed, so an identical
    resubmission is answered from the store with zero engine runs
    (in memory, or, with [store], persistent across daemon restarts —
    every fresh run appends one record).  Request bodies are content-cached too
    ({!Instance_cache}): resubmitting the same netlist bytes — one
    huge instance under many seeds, say — reuses the parsed
    hypergraph and fingerprint without reparsing, and the packed
    binary format ([format=hgrb], {!Hypart_hypergraph.Instance_store})
    is accepted alongside the text formats.

    Deadlines are cooperative: the worker installs a
    {!Hypart_engine.Cancel} hook for the request, and every engine
    polls it at its safe points; an expired request is answered
    [504].  [SIGTERM] (wired in the CLI to {!shutdown}) drains
    gracefully: admitted work completes, new work is refused, workers
    join, and the process exits 0.

    [POST /partition] and [POST /delta] share one request pipeline and
    therefore one contract.  Each endpoint only validates its own
    parameters and body and supplies the run; the pipeline does the
    rest for both:
    - the request id ([X-Hypart-Request-Id], client-sent or minted) is
      echoed, stored in the job ledger, stamped on every [request.*]
      event and attached to every engine span;
    - a request that fails validation is answered [400] (or [404] for a
      [/delta] base that is not resident), counted in
      [server.bad_requests] and logged as [request.rejected]; it never
      becomes a job;
    - an admitted request is a job: its dedup key is engine, config
      fingerprint, instance fingerprint and seed, and a key already in
      the cache is answered with zero engine runs
      ([server.cache_served]);
    - [deadline_ms] counts from admission; it is checked when the
      request leaves the queue, polled during the run and checked when
      the run returns (after recording it), and expiry is answered
      [504] ([server.deadline_exceeded]);
    - a fresh run is recorded in the run store (a key that a
      concurrent run already recorded appends nothing) and counted in
      [server.jobs_executed]; an engine that raises is
      answered [500] ([server.failures]);
    - answers are JSON, or with [out=plain] the partition file with
      all metadata in [X-Hypart-*] headers.

    Protocol reference: [docs/SERVER.md]. *)

type config = {
  host : string;  (** bind address, e.g. ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port (see {!port}) *)
  workers : int;  (** worker domains (>= 1) *)
  queue_capacity : int;  (** bounded queue depth (>= 1) *)
  max_body : int;  (** request bodies above this are 413 *)
  store : string option;  (** lab run-store directory for persistence *)
  retention : int;  (** jobs kept for [/jobs/<id>] *)
  instance_cache_bytes : int;
      (** byte bound of the parsed-instance cache ({!Instance_cache}):
          repeat submissions of the same body reuse the parsed
          hypergraph and fingerprint instead of reparsing *)
}

val default_config : config
(** 127.0.0.1:8817, [Parallel.recommended_domains ()] workers, queue
    64, 64 MiB bodies, no store, retention 1024, 512 MiB instance
    cache. *)

type t

val create : config -> t
(** Bind and listen (so {!port} is valid immediately), open the run
    store ([store], or an in-memory one), and enable telemetry
    collection.
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actually bound port — useful with [port = 0]. *)

val run : t -> unit
(** Spawn the worker pool and serve until {!shutdown}; returns after
    the graceful drain completes.  Call at most once. *)

(* kept: the answer encoder, tested against the renderer it replaced *)
val render_answer :
  out:[ `Json | `Plain ] ->
  want_assignment:bool ->
  headers:(string * string) list ->
  fields:(string * string) list ->
  Hypart_partition.Bipartition.t option ->
  string
(** A rendered [200] answer carrying [headers].  With [out = `Plain]
    the body is the solution's partition file (one side per line) and
    empty without a solution; with [`Json] it is the object of [fields]
    (rendered JSON values, in order) followed, when [want_assignment]
    and a solution is given, by its [assignment] array.  The whole
    response, the sides included, is one allocation. *)

val shutdown : t -> unit
(** Initiate the drain from any thread or from a signal handler:
    stop accepting, let queued and in-flight requests finish, then
    make {!run} return.  Idempotent. *)
