(** The persistent run store: one append-only JSONL file of completed
    runs, and the one handle every writer records through.

    Every completed engine run becomes one JSON object on its own line
    of a {!Hypart_telemetry.Jsonl} log, and inherits its crash contract:
    a killed campaign loses at most the single run that was being
    written, and loading drops malformed lines (in particular a
    truncated final line) instead of failing, so a crashed store is
    always reusable as-is — resume is just "run again with the store
    warm".

    Records are content-addressed: {!key} combines the engine name,
    the configuration fingerprint, the instance fingerprint and the
    seed.  Two runs with equal keys are bit-identical by construction
    (engines are deterministic functions of their seed), so the first
    record of a key is the only one the store keeps.

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
  stats : (string * float) list;
      (** the engine's {!Hypart_engine.Engine.Result.stats}, stored as
          flat [stat.<name>] members; empty for a line written before
          stats were stored *)
}

val key : engine:string -> config:string -> instance:string -> seed:int -> string
(** The content address of a run. *)

val filename : string -> string
(** [filename dir] is the JSONL path inside a store directory
    ([dir/runs.jsonl]). *)

(** {1 The store handle} *)

type t
(** The key index (first record per key wins) and, for a store opened
    on a directory, its append log.  Index and log change together
    under one mutex, so the domains of a parallel campaign and the
    daemon's workers share one handle. *)

val open_store : string -> t
(** [open_store dir] creates [dir] (and parents) if needed, terminates
    an unterminated last line, loads the index and opens the file for
    appending. *)

val load : string -> t
(** [load dir] loads the index read-only: it creates nothing on disk
    (an absent store loads as empty), and {!record} on it indexes in
    memory only. *)

val in_memory : unit -> t
(** An empty store backed by no file — for processes (the [hypart
    serve] daemon without [--store], [evolve] without a store) that
    deduplicate within their own lifetime. *)

val close : t -> unit
(** Close the append log, if any. *)

val size : t -> int
(** Number of distinct keys held. *)

val dropped : t -> int
(** Malformed lines dropped while loading — non-zero after a crash
    truncated the final record. *)

val find : ?quiet:bool -> t -> key:string -> record option
(** The record of [key].  Counts a [lab.cache_hits] or
    [lab.cache_misses] unless [quiet] (default [false]). *)

val record :
  t ->
  engine:string ->
  config:string ->
  instance:string ->
  seed:int ->
  cut:int ->
  legal:bool ->
  seconds:float ->
  stats:(string * float) list ->
  record
(** Record one completed run: stamp it with the machine factor and the
    [git describe] of this process ({!Provenance}), then index and
    append it (flushed) under the store's lock.  Its floats, stats
    included, are kept at the log's precision, so the indexed record
    equals the one a reload reads back.  A key that is already indexed
    appends nothing and returns its first record. *)

(** {1 Maintenance} *)

val compact : string -> int * int
(** [compact dir] rewrites the store atomically (write-temp + rename)
    with the records {!load} keeps, dropping malformed lines and
    duplicate keys.  Returns [(kept, dropped)]. *)

(** {1 The line codec} *)

(* kept: the corruption properties build and cut store files line by line with it *)
val record_to_line : record -> string

(* kept: the store tests parse what [record_to_line] and the writers produced *)
val record_of_line : string -> record option
