(** Content fingerprints for the experiment store.

    Cache keys must survive process restarts and be identical across
    machines and OCaml versions, so they are built from the explicit
    64-bit FNV-1a hash of {!Hypart_rng.Fnv} over canonical byte strings
    rather than from [Hashtbl.hash] (whose value is not specified across
    versions).

    A fingerprint is rendered as 16 lowercase hex digits. *)

val of_string : string -> string
(** FNV-1a of the raw bytes. *)

val of_pairs : (string * string) list -> string
(** Fingerprint of a key/value configuration, independent of the
    order in which the pairs are listed (they are sorted by key).
    Keys and values are length-prefixed so adjacent pairs cannot
    collide by concatenation. *)

val seeded_config : tolerance:float -> starts:int -> string
(** The config fingerprint of a seeded job
    ([Engine.multistart_seeds] at this balance tolerance and start
    count), everything that parameterizes it besides engine name,
    instance and seed.  The daemon's [/partition] and memetic
    evaluations both key their {!Run_store} records with it, so they
    share one key space.  It carries the version stamp [proto=serve-v1],
    so a change of the job's meaning can retire old keys instead of
    aliasing them. *)

val of_instance : Hypart_hypergraph.Hypergraph.t -> string
(** Structural fingerprint of a hypergraph: vertex/net/pin counts,
    every vertex and net weight, and the full CSR pin structure.  Two
    hypergraphs share a fingerprint iff they are the same labelled
    weighted hypergraph (modulo hash collisions). *)

val mix_seed : base:int -> string list -> int
(** Deterministic non-negative seed for one experiment cell, derived
    from a base seed and the cell's identifying strings.  Independent
    of job-list order and of how jobs are sharded across domains. *)
