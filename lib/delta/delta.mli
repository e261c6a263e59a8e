(** The versioned netlist-delta codec ([.hgrd]).

    An ECO (engineering change order) arrives as a small edit script
    against a known base instance: nets added or removed, cells
    reweighted, free cells added or removed.  The text format mirrors
    the [.hgr] conventions ({!Hypart_hypergraph.Netlist_io}): 1-based
    ids, ['%'] comment lines, blank lines and CRLF endings tolerated,
    and every diagnostic is located as ["path:line: message"].

    {v
    HGRD 1
    base 1f2e3d4c5b6a7988
    rmnet 17
    reweight 204 3
    addcell 2
    addnet 1 204 1301 4097
    prior 4096
    0
    1
    ...
    v}

    [HGRD 1] is the required version header.  [base <fp>] names the lab
    fingerprint of the instance the delta applies to (checked by
    {!Patch.apply}).  Cells added by [addcell] extend the id space: the
    first added cell is [num_vertices + 1], and [addnet]/[reweight]/
    [rmcell] lines may reference them.  The optional trailing [prior
    <n>] section embeds a prior partition (one side per line, as in a
    partition file) — this is how the daemon's [POST /delta] receives
    the warm-start solution in the same body as the edit script.

    Duplicated [rmnet]/[rmcell] targets are parse errors (an edit
    script that removes the same object twice is corrupt, and catching
    it here gives the error a line number). *)

type op =
  | Add_cell of int  (** weight of the new free cell *)
  | Remove_cell of int  (** 0-based cell id *)
  | Reweight_cell of int * int  (** 0-based cell id, new weight *)
  | Add_net of int * int array  (** weight, 0-based distinct pins *)
  | Remove_net of int  (** 0-based net id *)

type t = private {
  source : string;  (** path (or ["<delta>"]) used in diagnostics *)
  base : (string * int) option;
      (** expected base fingerprint and the line that declared it *)
  ops : (int * op) array;  (** (source line, op), in file order *)
  prior : int array option;  (** embedded prior partition, if any *)
}

exception Parse_error of string
(** Located as ["path:line: message"], like
    {!Hypart_hypergraph.Netlist_io.Parse_error}. *)

val of_string : ?source:string -> string -> t
(** Parse a delta from an in-memory body ([source] defaults to
    ["<delta>"]).  @raise Parse_error on malformed input. *)

val of_bytes : ?source:string -> Bytes.t -> int -> t
(** [of_bytes b n] is {!of_string} of [b.[0 .. n)], read in place.  The
    delta keeps nothing of [b]: the caller may overwrite it once this
    returns.
    @raise Parse_error on malformed input.
    @raise Invalid_argument when [n] is not within [b]. *)

val read : string -> t
(** Parse a [.hgrd] file.  @raise Parse_error (located with the file
    path), also when the file cannot be opened or read (the message
    then names the path, as {!Hypart_hypergraph.Netlist_io} does). *)

val to_string : ?with_prior:bool -> t -> string
(** Canonical text rendering; [with_prior] (default [true]) controls
    whether an embedded prior section is emitted. *)

val write : string -> t -> unit
(** Write {!to_string} to a file. *)

val with_prior : t -> int array option -> t
(** Replace the embedded prior partition (sides are validated to be
    0/1).  @raise Invalid_argument on a bad side value. *)

val with_base : t -> string -> t
(** Set the expected base fingerprint. *)

val num_ops : t -> int

val chain_fingerprint : base:string -> t -> string
(** The delta fingerprint, chained from the base instance fingerprint:
    a {!Hypart_lab.Fingerprint.of_string} over the base fingerprint and
    the canonical op stream (the embedded prior and the [base] line are
    excluded — they identify the request, not the patched instance).
    Applying equal deltas to equal bases yields equal fingerprints, so
    chains of deltas address their instances content-wise. *)
