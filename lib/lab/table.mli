(** Plain-text and CSV rendering of result tables, laid out like the
    paper's tables (first column(s) describe the configuration, one
    column per test case or configuration). *)

type t

val make : headers:string list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width disagrees with the
    headers. *)

val add_separator : t -> unit
(** A horizontal rule, used between the engine blocks of Table 1. *)

val add_span : t -> string -> unit
(** A full-width centred label row, e.g. ["Flat LIFO FM"]. *)

val render : t -> string
(** Aligned monospace rendering with a header rule. *)

val to_csv : t -> string
(** Headers + data rows (spans become single-cell rows; separators are
    dropped). *)

val to_markdown : t -> string
(** A Markdown pipe table (spans become rows labelled in their first
    cell; separators are dropped). *)

val print : t -> unit
(** [render] to stdout. *)
