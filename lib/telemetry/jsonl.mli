(** Flat JSON-lines records and the one append-only log that stores
    them: the lab run store ([runs.jsonl]), the population log
    ([population.jsonl]) and the event log ([--events]) all write
    through it.

    A record is one JSON object of scalar fields on one line.  The log's
    crash contract, shared by all three:
    - every line is flushed as it is appended, so a killed process loses
      at most the line being written;
    - opening a log whose last line is unterminated terminates it first,
      so the partial line stays on its own and never corrupts the next
      record;
    - the reader treats every line independently, and a caller drops a
      malformed line (in particular a truncated one) instead of failing
      the whole file. *)

type value = Json_in.scalar =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
(** The one type of a record field, shared with the reader
    ({!Json_in.flat_object}). *)

val to_line : (string * value) list -> string
(** One-line JSON object (no trailing newline).  Field order is
    preserved, strings are escaped as in {!Json_out}. *)

val of_line : string -> (string * value) list option
(** Parse one line back ({!Json_in.flat_object}).  [None] on any
    malformed input: truncation, trailing garbage, nested arrays/objects,
    bad escapes.  Never raises. *)

val member : string -> (string * value) list -> value option

val string_member : string -> (string * value) list -> string option
val int_member : string -> (string * value) list -> int option
val bool_member : string -> (string * value) list -> bool option

val float_member : string -> (string * value) list -> float option
(** Accepts both [Int] and [Float] fields (JSON does not distinguish
    [1] from [1.0] on the wire). *)

(** {1 The append-only log} *)

type t
(** An open log (append side).  Appends are serialized with a mutex,
    so domains can share one handle. *)

val open_log : string -> t
(** [open_log path] creates the parent directory if needed, terminates
    an unterminated last line, and opens [path] for appending.
    @raise Sys_error when the file cannot be opened. *)

val append : t -> (string * value) list -> unit
(** Write one record as one line and flush it. *)

val close : t -> unit

val fold : string -> ('a -> string -> 'a) -> 'a -> 'a
(** [fold path f init] folds [f] over the non-blank lines of the log
    at [path], in file order.  A missing file gives [init]. *)
