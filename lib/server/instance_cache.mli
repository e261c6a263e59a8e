(** Parsed-instance cache for the daemon.

    Maps the raw request body (keyed by content hash, before any
    parsing) to the already-built {!Hypart_hypergraph.Hypergraph.t}
    and its lab fingerprint, so a repeat submission against a huge
    instance never reparses the text or refingerprints the pin arrays
    — the second request costs one hash of the body.

    Bounded by estimated resident bytes
    ({!Hypart_hypergraph.Hypergraph.memory_bytes} per entry) with
    least-recently-used eviction.  All operations are mutex-protected;
    worker domains share one cache.  Entries are immutable snapshots —
    the hypergraph handed out is the one the parser built, shared, not
    copied, which is safe because {!Hypart_hypergraph.Hypergraph.t} is
    never mutated after construction. *)

type t

val create : ?max_bytes:int -> unit -> t
(** An empty cache bounded by [max_bytes] (default 512 MiB).
    @raise Invalid_argument when [max_bytes < 1]. *)

val key : format:string -> body:string -> string
(** Content key: a 64-bit hash, as 16 lowercase hex digits, of the
    format tag and the raw, unparsed request body.  It folds the body
    8 bytes at a time (MurmurHash64A in structure) and allocates
    nothing but its result.  The key lives only in this cache — it is
    never persisted or shown — so it is not the {!Hypart_rng.Fnv} hash
    that fingerprints use, and its value may change between versions. *)

val key_bytes : format:string -> Bytes.t -> int -> string
(** [key_bytes ~format b n] is {!key} of the body [b.[0 .. n)], read
    in place: the daemon keys a request body where the HTTP parser left
    it.
    @raise Invalid_argument when [n] is not within [b]. *)

val find : t -> string -> (Hypart_hypergraph.Hypergraph.t * string) option
(** Cached instance and fingerprint for a key, marking it
    most-recently-used. *)

val find_fingerprint : t -> string -> Hypart_hypergraph.Hypergraph.t option
(** Resolve a resident instance by its lab fingerprint, marking it
    most-recently-used.  [POST /delta] uses this to find the base
    instance no matter which body encoding originally delivered it. *)

val add : t -> string -> Hypart_hypergraph.Hypergraph.t -> fingerprint:string -> unit
(** Insert, evicting least-recently-used entries to stay under the
    byte bound.  An entry larger than the whole cache is dropped
    (served once, never retained). *)

val resident : t -> int
(** Number of cached instances (the [/healthz] [instances_resident]). *)

val bytes : t -> int
(** Estimated resident bytes across all entries. *)
