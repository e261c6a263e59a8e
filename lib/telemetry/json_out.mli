(** Internal JSON string building (no external JSON dependency). *)

val string : string -> string

val number : float -> string
(** Finite floats only; non-finite values are clamped to [0] so the
    emitted document always parses. *)

val int : int -> string
val obj : (string * string) list -> string
val arr : string list -> string
val write_file : string -> string -> unit
