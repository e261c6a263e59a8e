(** The one hash for persisted and displayed identities: 64-bit FNV-1a
    over explicit byte sequences.

    Every persistent key (lab fingerprints, run keys, derived seeds),
    every request id derived from text, and every seed derived from a
    name ({!Hypart_telemetry.Metrics} reservoirs) folds bytes through
    these functions, so values are identical across machines, processes
    and OCaml versions — unlike [Hashtbl.hash].  A key that never
    leaves one process may use a faster hash: the daemon's request-body
    key ([Instance_cache.key]) does. *)

val offset : int64
(** The FNV-1a 64-bit offset basis, the hash of no bytes. *)

val add_string : int64 -> string -> int64

val add_int : int64 -> int -> int64
(** Fold an int as 8 little-endian bytes. *)

val add_i32s :
  int64 ->
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int64
(** Fold each element with {!add_int}, in index order.  An element
    below 2^8, 2^16 or 2^24 folds its low bytes and then its zero high
    bytes as one multiply, with the same result. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits. *)
