(** The persistent run store: one append-only JSONL file of completed
    runs.

    Every completed engine run becomes one JSON object on its own line
    of a {!Hypart_telemetry.Jsonl} log, and inherits its crash contract:
    a killed campaign loses at most the single run that was being
    written, and {!load} drops malformed lines (in particular a
    truncated final line) instead of failing, so a crashed store is
    always reusable as-is — resume is just "run again with the cache
    warm".

    Records are content-addressed: {!key} combines the engine name,
    the configuration fingerprint, the instance fingerprint and the
    seed.  Two runs with equal keys are bit-identical by construction
    (engines are deterministic functions of their seed), so the store
    never needs to distinguish them.

    See [docs/EXPERIMENTS_STORE.md] for the on-disk schema. *)

type record = {
  engine : string;  (** registry name, e.g. ["mlclip"] *)
  config : string;  (** configuration fingerprint ({!Fingerprint.of_pairs}) *)
  instance : string;  (** instance fingerprint ({!Fingerprint.of_instance}) *)
  seed : int;
  cut : int;
  legal : bool;
  seconds : float;  (** CPU seconds of this run (not normalized) *)
  machine_factor : float;  (** normalization factor at record time *)
  git : string;  (** [git describe] stamp, ["unknown"] outside a checkout *)
}

val key : engine:string -> config:string -> instance:string -> seed:int -> string
(** The content address of a run. *)

val record_key : record -> string

val filename : string -> string
(** [filename dir] is the JSONL path inside a store directory
    ([dir/runs.jsonl]). *)

(** {1 Writing} *)

type t
(** An open store handle (append side).  Appends are serialized with a
    mutex, so domains of a parallel campaign can share one handle. *)

val open_store : string -> t
(** [open_store dir] creates [dir] (and parents) if needed, terminates
    an unterminated last line, and opens the store file for
    appending. *)

val append : t -> record -> unit
(** Append one record and flush. *)

val close : t -> unit

(** {1 Reading} *)

val load : string -> record list * int
(** [load dir] reads every intact record of the store, in file order,
    plus the number of malformed lines dropped.  An absent store reads
    as empty. *)

(** {1 Maintenance} *)

val compact : string -> int * int
(** [compact dir] rewrites the store atomically (write-temp + rename),
    dropping malformed lines and duplicate keys (first occurrence
    wins).  Returns [(kept, dropped)]. *)

(** {1 Serialization (exposed for tests)} *)

val record_to_line : record -> string
val record_of_line : string -> record option
