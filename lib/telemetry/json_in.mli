(** The one JSON reader, counterpart to {!Json_out} (no external JSON
    dependency).  {!parse} reads any document; {!flat_object} reads the
    one-object-of-scalars lines of the JSONL logs ({!Jsonl}).  Both run
    over the same scanner:

    - a number starts with [-] or a digit;
    - [\u] takes exactly four hex digits; a code point up to [0xff]
      decodes to that byte (the inverse of {!Json_out.escape}), and a
      wider one decodes to ['?'];
    - only whitespace may follow the value. *)

type scalar = String of string | Int of int | Float of float | Bool of bool
(** A flat-record field value; {!Jsonl.value} is this type. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> t
(** Numbers become floats.
    @raise Failure on a malformed document (with an offset). *)

val parse_result : string -> (t, string) result
val member : string -> t -> t option
(** Object field lookup; [None] on non-objects or missing keys. *)

val flat_object : string -> (string * scalar) list option
(** One object whose values are all scalars, fields in order.  A
    number lexeme without [.], [e] or [E] is an [Int], read with
    [int_of_string] (never through a float, so 62-bit ints round-trip);
    any other is a [Float].  [None] on any malformed input: truncation,
    trailing garbage, nested arrays/objects, [null], bad escapes, an
    int out of range.  Never raises. *)
