(** The persistent population log: one append-only JSONL file of
    evaluated campaign candidates ([dir/population.jsonl]).

    Every candidate a campaign produces — seed, recombination or
    immigrant — becomes one flat JSON object on its own line, flushed
    immediately, carrying its full assignment (as a ['0']/['1'] string,
    one character per vertex).  Candidates are addressed by their
    [(generation, slot)] coordinates, which are a pure function of the
    campaign seed, so reopening the log lets {!Evolve.run} replay the
    campaign and skip every evaluation already on disk — crash-safe
    resume without a checkpoint format.

    The first line is a header stamping the campaign fingerprint
    (everything that parameterizes the search); opening a log written
    by a different campaign raises {!Mismatch} instead of silently
    mixing incompatible populations.  The log is a
    {!Hypart_telemetry.Jsonl} log with its crash contract: the reader
    drops malformed lines (a truncated tail after a crash) and opening
    repairs an unterminated final line before appending. *)

type entry = {
  gen : int;  (** generation; 0 seeds the population, -1 is injected *)
  slot : int;  (** position within its generation *)
  kind : string;  (** ["seed"], ["recombine"], ["immigrant"], ["initial"] *)
  seed : int;  (** evaluation seed that produced it (0 for injected) *)
  cut : int;
  legal : bool;
  seconds : float;  (** CPU seconds spent producing it *)
  assignment : int array;  (** side of every vertex *)
}
(** One campaign candidate: what {!Evolve} evaluates, logs and admits
    into its {!Population}. *)

exception Mismatch of { expected : string; found : string }
(** The log on disk belongs to a different campaign fingerprint. *)

type t

val filename : string -> string
(** [filename dir] is [dir/population.jsonl]. *)

val open_log : dir:string -> campaign:string -> t
(** Create [dir] if needed, replay any existing log into the
    in-memory [(gen, slot)] index, and open for appending.  A fresh
    log gets a header line carrying [campaign].
    @raise Mismatch when an existing header names another campaign. *)

val find : t -> gen:int -> slot:int -> entry option
(** The replayed or appended entry at those coordinates, if any. *)

val append : t -> entry -> unit
(** Append one entry, flush, and index it. *)

val entries : t -> int
(** Number of indexed entries. *)

val dropped : t -> int
(** Malformed lines dropped during replay. *)

val close : t -> unit
