(** Reading and writing hypergraph netlists: the one module that knows
    the instance formats.  docs/FORMATS.md describes each format.

    - Read: hMetis [.hgr]; ISPD98 [.netD]; UCLA Bookshelf [.nodes] /
      [.nets] (the GSRC format of the paper's own research group);
      [.part] partition files.  Cells are named [a<i>] and pads
      [p<j>], pads after the cells.
    - Written besides: [.hgr], [.are] cell areas, Bookshelf [.pl]
      placements and [.part] files.
    - Every reader runs over one line cursor that scans a string in
      place or a file in fixed-size chunks; a file is never slurped.
    - The packed binary [.hgrb] lives in {!Instance_store}; {!read} and
      {!decode} dispatch to it. *)

exception Parse_error of string
(** Raised with a located message (["<source>:<line>: <cause>"], or
    ["<source>: <cause>"] for the input as a whole) on malformed input,
    and with the system's message when a file cannot be opened. *)

(** {1 Instance formats} *)

type format = Hgr | Hgrb | Netd | Bookshelf

val formats : format list
(** Every instance format, [Hgr] first. *)

val format_tag : format -> string
(** The wire tag of a format, as the daemon's [format=] parameter
    spells it: [hgr], [hgrb], [netd], [bookshelf]. *)

val extensions : format -> string list
(** The path extensions that name a format, the canonical one first:
    [.hgr], [.hgrb], [.netD] (or [.netd]), [.nodes]. *)

val format_of_path : string -> format option
(** The format a path's extension names, if any — the one place
    netlist extensions are tested. *)

val read : format -> string -> Hypergraph.t * string option
(** [read format path] reads an instance file; a Bookshelf [path] is
    the [.nodes] file, with its [.nets] beside it.  The second
    component is the fingerprint an [.hgrb] header carries ([None] for
    the text formats).
    @raise Parse_error or {!Instance_store.Format_error}. *)

val decode : source:string -> format -> string -> Hypergraph.t * string option
(** [decode ~source format bytes] is {!read} over bytes already in
    memory (a request body).  A Bookshelf body is the [.nodes] text
    followed by the [.nets] text, as {!payload} builds it; diagnostics
    name [source] and count lines from the start of [bytes].
    @raise Parse_error or {!Instance_store.Format_error}. *)

val decode_bytes :
  source:string -> format -> Bytes.t -> int -> Hypergraph.t * string option
(** [decode_bytes ~source format b n] is {!decode} of [b.[0 .. n)], read
    in place.  The result keeps nothing of [b]: the caller may
    overwrite it once this returns.
    @raise Invalid_argument when [n] is not within [b]. *)

val payload : format -> string -> string
(** [payload format path] is the wire form of an instance file: its
    bytes, or for Bookshelf the [.nodes] text, a newline if it lacks
    a final one, then the [.nets] text.  [decode ~source format
    (payload format path)] equals [read format path].
    @raise Parse_error when a file cannot be read. *)

(** {1 The line cursor}

    Every reader pulls its data lines from one cursor.  Bytes in memory
    are scanned in place; a file is read in fixed-size chunks into one
    reused buffer, so it streams in memory bounded by the chunk and its
    longest line.  Lines are trimmed (which also strips the ['\r'] of
    CRLF endings); blank lines and comment lines are skipped but still
    counted, so a diagnostic names the physical line.  The current line
    is a slice of the cursor's buffer, copied out only on request.
    Other line-oriented decoders (the [.hgrd] delta format) read
    through it too.  The [.hgr] reader first tries each edge and
    vertex-weight line with a one-scan loop that converts digit runs
    as it meets them and finds the line's end itself; a line that loop
    declines (any byte but digits, single spaces and the ['\n'], a
    token of more than 18 digits, a value out of range, the end of a
    file's chunk) is read through the cursor from its start, with the
    same result. *)

type cursor

val bytes_cursor : ?comment:char -> source:string -> Bytes.t -> int -> cursor
(** [bytes_cursor ~source b n] is a cursor over [b.[0 .. n)], which it
    reads in place and never writes; [comment] (default ['%']) starts a
    comment line, and [source] names the input in diagnostics.
    @raise Invalid_argument when [n] is not within [b]. *)

val next : cursor -> bool
(** Advance to the next data line; [false] at the end of the input. *)

val line_number : cursor -> int
(** The 1-based physical line number of the current data line. *)

val line : cursor -> string
(** A copy of the current data line. *)

val fields : cursor -> string list
(** Copies of the fields of the current data line: its runs of
    non-blanks, blanks being spaces and tabs. *)

val line_ints : cursor -> int array -> int
(** [line_ints c dst] reads the current data line as integer fields,
    converting them where they lie: it returns the line's field count
    and, when that count is at most [Array.length dst], stores the
    values in [dst.(0 ..)] (a longer line is counted, not converted).
    A field of an optional ['-'] and at most 18 decimal digits converts
    without allocating; any other field is accepted exactly when
    [int_of_string_opt] accepts it, with the same value.
    @raise Parse_error ["<source>:<line>: expected integer, got <field>"]
    for a field that is not an integer. *)

(** {1 Writers and the .hgr reader} *)

val write_hgr : ?with_weights:bool -> string -> Hypergraph.t -> unit
(** [write_hgr path h] writes [h] in [.hgr] format.  When
    [with_weights] (default [true]) both edge and vertex weights are
    written (fmt 11); otherwise the instance is written unweighted. *)

val hgr_string : ?with_weights:bool -> Hypergraph.t -> string
(** The bytes {!write_hgr} writes, in memory. *)

val read_hgr : string -> Hypergraph.t
(** Parse an [.hgr] file.  Accepts fmt 0 / 1 / 10 / 11. *)

val write_are : string -> Hypergraph.t -> unit
(** [write_are path h] writes cell areas, one ["a<i> <area>"] per line. *)

val write_pl : basename:string -> x:float array -> y:float array -> unit
(** Write [basename.pl] with one placement row per cell. *)

val write_partition : string -> int array -> unit
(** Write a solution's side array, one side per line. *)

val read_partition : string -> num_vertices:int -> int array
(** Parse a partition file (sides are nonnegative integers; a
    bipartition uses 0 and 1, k-way files use 0..k-1).
    @raise Parse_error on malformed input or a line count that
    disagrees with [num_vertices]. *)
