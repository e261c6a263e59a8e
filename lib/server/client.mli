(** The daemon's client: [hypart submit], [hypart eco --submit] and
    {!Fleet} all make their round trips through {!post}.

    A blocking HTTP/1.1 client over stdlib [Unix] sockets with retry
    logic tuned for the daemon's backpressure contract: the transient
    statuses — [503 Retry-After] (queue full) and [504] (deadline,
    which a fresh submission restarts) — are retried with capped
    exponential backoff and equal jitter, honouring the server's
    [Retry-After] as the floor, while non-retriable HTTP errors
    ([400] bad request, [413] too large, …) fail fast.  Connection
    failures (daemon not up yet, connection reset) retry on the same
    schedule, which makes "start daemon & submit" scripts race-free. *)

type response = Http.response = {
  status : int;
  resp_headers : (string * string) list;
  resp_body : string;
}

val mint_request_id : unit -> string
(** A fresh request id for [X-Hypart-Request-Id]: a decimal integer
    below 2{^53}, so the daemon can stamp it into float-valued trace
    args without loss. *)

val http_request :
  host:string ->
  port:int ->
  meth:string ->
  path:string ->
  ?headers:(string * string) list ->
  ?body:string ->
  unit ->
  (response, string) result
(** One request-response exchange on a fresh connection (the daemon
    is [Connection: close]); reads to EOF, then parses.  [Error] is a
    human-readable transport or parse failure. *)

(* kept: the pure retry schedule, tested without a daemon *)
val backoff_delay :
  ?base:float -> ?cap:float -> attempt:int -> retry_after:float option ->
  float ->
  float
(** [backoff_delay ~attempt ~retry_after jitter] is the delay before
    retry [attempt] (0-based): equal jitter over an exponential
    schedule, [delay = u/2 + jitter * u/2] with
    [u = min cap (base * 2^attempt)] and [jitter] in [[0,1]]; a server
    [retry_after] raises the result to at least that.  Pure — the
    caller supplies the jitter sample — so tests are deterministic.
    Defaults: [base = 0.25], [cap = 8.0]. *)

val retryable_status : int -> bool
(** Whether an HTTP status is worth retrying verbatim: [502] (a proxy
    in front of a restarting daemon), [503] (queue full) and [504]
    (deadline) are; success and request-shaped errors ([400], [413], …)
    are not. *)

(* kept: the retry loop, tested with injected sleep and jitter *)
val with_retries :
  ?attempts:int ->
  ?base:float ->
  ?cap:float ->
  ?sleep:(float -> unit) ->
  ?rng:(unit -> float) ->
  (unit -> (response, string) result) ->
  (response, string) result
(** Run [f] until it yields a non-retryable outcome: success, any
    status for which {!retryable_status} is false, or [attempts]
    (default 6) exhausted (the last result is returned).  Transport
    errors ([Error _]) are always retried.  [sleep] and [rng] are
    injectable for tests; [rng] defaults to a fixed mid-range jitter
    of [0.5] so the client needs no global random state. *)

(** {1 The daemon's [out=plain] answer} *)

val partition_path :
  engine:string ->
  seed:int ->
  starts:int ->
  tolerance:float ->
  format:string ->
  ?deadline_ms:int ->
  unit ->
  string
(** The [/partition] request path for one job, answered [out=plain].
    [deadline_ms] (default 0, none) adds the per-request deadline. *)

type answer = {
  cut : int;
  legal : bool;
  cached : bool;  (** served from the daemon's dedup cache *)
  seconds : float;  (** server-side engine CPU seconds (not normalized) *)
  job : int;  (** the daemon's job id *)
  request_id : string;
      (** as echoed by the daemon, else the id the client sent *)
  assignment : int array option;
      (** one side per vertex; [None] on a cache hit, whose record holds
          only scalars *)
  served_by : string;  (** ["host:port"] of the daemon that answered *)
  headers : (string * string) list;  (** every response header *)
}

val header : answer -> string -> string option
(** A response header by case-insensitive name — for the
    endpoint-specific ones such as [X-Hypart-Mode] and
    [X-Hypart-Delta-Fingerprint]. *)

type failure =
  | Unreachable of string  (** transport error, retries exhausted *)
  | Refused of response  (** a non-200 answer (retryable ones exhausted) *)
  | Malformed of string
      (** a 200 without [X-Hypart-Cut] or [X-Hypart-Job], or whose body
          is not one integer side per line; names the daemon *)

val failure_message : failure -> string
(** One human-readable message; a refusal reads
    ["HTTP <status> <reason>\n<body>"]. *)

val post :
  ?attempts:int ->
  ?sleep:(float -> unit) ->
  host:string ->
  port:int ->
  path:string ->
  body:string ->
  unit ->
  (answer, failure) result
(** One daemon round trip: POST [body] to [path] under a freshly minted
    [X-Hypart-Request-Id] (the same id on every retry), retried as
    {!with_retries} does, and decoded from the [X-Hypart-*] headers and
    the one-side-per-line body.  [path] must ask for [out=plain]. *)
