(** A growable int32 vector: the CSR buffer of the delta patcher.
    Capacity doubles when a push or blit does not fit; {!contents}
    hands back the filled prefix in an array of exactly {!length}
    slots, so no spare capacity stays alive behind a built instance
    ({!Hypergraph.memory_bytes}, and with it the daemon's instance-cache
    accounting, counts [dim]). *)

type t

val create : int -> t
(** An empty vector with room for [max capacity 16] values. *)

val length : t -> int

val push : t -> int -> unit

val blit : t -> Hypergraph.i32 -> int -> int -> unit
(** [blit b src off len] appends [src.{off .. off+len-1}]. *)

val push_ints : t -> int array -> int -> unit
(** [push_ints b src n] appends [src.(0) .. src.(n-1)]: one call for a
    run of values, where a caller outside this module would otherwise
    pay a function call per {!push}. *)

val contents : t -> Hypergraph.i32
(** The filled prefix in an array of exactly [length b] slots: the
    buffer itself when it is full, otherwise a fresh copy, never a
    [sub] view of the larger buffer. *)
