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

val find : t -> int -> job option
val total : t -> int

val job_json : t -> job -> string
(** One job as a JSON object. *)
