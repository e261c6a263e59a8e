(** Versioned binary on-disk instance format ([.hgrb]) with mmap loading.

    A packed instance is the hypergraph's CSR vectors written verbatim
    as little-endian int32 sections after a fixed-size header, so
    {!load} is a single [Unix.map_file] call plus zero-copy
    [Bigarray.Array1.sub] slices — no parsing, no CSR construction, and
    the OS shares the pages across processes.  Both incidence
    directions are stored; loading performs only O(pins) validation.

    The header carries the instance's lab fingerprint
    ({!Hypart_lab.Fingerprint.of_instance} of the packed hypergraph),
    so caches keyed by fingerprint can trust a packed file without
    re-deriving it.  See docs/FORMATS.md for the byte-level layout. *)

exception Format_error of string
(** Raised by {!load} and {!of_bytes} on a truncated, corrupt, foreign
    or unreadable input.  The message is located: ["<path>: <cause>"]. *)

val magic : string
(** File magic, ["HGRB"]. *)

val version : int
(** Current format version. *)

val save : string -> fingerprint:string -> Hypergraph.t -> unit
(** [save path ~fingerprint h] writes [h] packed to [path] (via a
    temporary file + rename, so a crash never leaves a half-written
    instance at [path]).  [fingerprint] must be the 16-hex-char lab
    instance fingerprint of [h]; it is stored in the header and
    returned by {!load}.

    @raise Invalid_argument if [fingerprint] is not 16 characters. *)

val load : string -> Hypergraph.t * string
(** [load path] maps the packed instance at [path] and returns the
    hypergraph (CSR vectors are zero-copy views of the mapping) plus
    the stored fingerprint.  The file descriptor is closed before
    returning; the mapping stays valid until the views are collected.

    @raise Format_error on bad magic, wrong version or byte order,
    truncation, section checks failing, or a mapped CSR that fails
    structural validation ({!Hypergraph.of_mapped_csr}). *)

val of_bytes : source:string -> Bytes.t -> int -> Hypergraph.t * string
(** [of_bytes ~source b n] decodes a packed instance held in memory as
    [b.[0 .. n)] (a request body, say): the same header decoding and
    CSR validation as {!load}, with the sections copied out of [b]
    instead of mapped, so the result keeps nothing of [b].  [source]
    names the input in diagnostics.
    @raise Format_error as for {!load}.
    @raise Invalid_argument when [n] is not within [b]. *)

(* kept: a header-only read; the packed-layout test checks the header *)
val read_fingerprint : string -> string
(** [read_fingerprint path] reads just the header and returns the
    stored fingerprint without mapping the sections.
    @raise Format_error as for {!load}. *)
