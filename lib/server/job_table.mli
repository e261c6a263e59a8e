(** The daemon's job ledger: one record per admitted [POST /partition]
    or [POST /delta] request, queryable at [/jobs/<id>] while the daemon
    lives.  Requests rejected during validation never become jobs.

    Records are bounded (oldest evicted beyond [retention]) and keep
    only scalars — never the netlist or the assignment — so the table
    stays small under sustained traffic.  All updates go through the
    table's lock; readers get a consistent snapshot rendered to JSON. *)

type status =
  | Queued
  | Running
  | Done  (** executed by an engine this lifetime *)
  | Served_cached  (** answered from the content-addressed cache *)
  | Deadline_exceeded
  | Failed of string  (** engine raised; the daemon survived *)

type job = {
  id : int;
  request_id : string;  (** client-supplied or daemon-minted trace id *)
  engine : string;
  key : string;  (** {!Hypart_lab.Run_store.key} content address *)
  seed : int;
  starts : int;
  submitted_s : float;  (** monotonic clock, seconds *)
  mutable status : status;
  mutable started_s : float option;  (** set on the [Running] transition *)
  mutable finished_s : float option;  (** set on the first terminal transition *)
  mutable cut : int option;
  mutable legal : bool option;
  mutable seconds : float;  (** engine CPU seconds (0 until done) *)
  mutable phases : (string * float) list;
      (** wall seconds per served-request phase, empty until answered *)
  mutable wall_seconds : float;
      (** accept to the end of encoding the answer (0 until answered) *)
}

type t

val create : retention:int -> t

val add :
  t -> request_id:string -> engine:string -> key:string -> seed:int ->
  starts:int -> job
(** Register a new job as [Queued]; ids are monotonically increasing
    from 1. *)

val update : t -> job -> status -> unit
(** Transition a job's status (takes the table lock so concurrent
    [/jobs] readers see consistent records).  Stamps [started_s] on the
    first [Running] transition and [finished_s] on the first terminal
    one, from which {!job_json} derives [queue_seconds] and
    [exec_seconds]. *)

(** {1 Served-request phases}

    The wall seconds an answered request spends in each phase, from its
    accept to the end of encoding its answer.  The phases are timed one
    after another and never overlap, so they sum to at most the
    request's wall time; the rest is bookkeeping (parameters, the job
    ledger, events, the run store).  A phase the request skipped reads
    0: an instance-cache hit has no [Parse], a lab-cache answer no
    [Engine].  A request's clock starts before its job exists, so
    {!record_phases} carries it into the job. *)

type phase =
  | Queue_wait  (** the accepted connection waits for a worker *)
  | Decode  (** reading and parsing the HTTP request *)
  | Key  (** body hash and instance-cache lookup *)
  | Parse  (** building the request's instance *)
  | Fingerprint  (** the lab fingerprint of a decoded text instance *)
  | Engine  (** the engine run *)
  | Encode  (** rendering the answer *)

type timing
(** One request's clock. *)

val timing : accepted_s:float -> taken_s:float -> timing
(** The clock of a request accepted at [accepted_s] and taken by a
    worker at [taken_s] (monotonic seconds): its [Queue_wait] is
    already known. *)

val accepted_s : timing -> float

val timed : timing -> phase -> (unit -> 'a) -> 'a
(** [timed tm phase f] runs [f], adding its wall time to [phase]. *)

val record_phases : t -> job -> timing -> unit
(** Record an answered job's phases, each also observed as a
    [server.phase_seconds.<phase>] histogram, and its wall time so far,
    which {!job_json} renders as a [phases] object and [wall_seconds]. *)

val find : t -> int -> job option
val total : t -> int

val job_json : t -> job -> string
(** One job as a JSON object. *)
