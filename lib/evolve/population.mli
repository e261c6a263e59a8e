(** The memetic population: a size-bounded, diversity-aware pool of
    partitions.

    Admission follows the memetic-multilevel replacement rule: the
    candidate always enters the pool, and when the pool then exceeds
    its capacity, the {e most similar pair} of members (by
    {!Hypart_partition.Bipartition.similarity}, which is label-flip
    invariant) is located and the {e worse} member of that pair is
    evicted — legality first, then cut, ties toward evicting the
    younger member.  This keeps the population spread over distinct
    basins instead of collapsing onto clones of the incumbent best.

    Every choice is deterministic: similarity ties resolve toward the
    pair with the lexicographically smallest member ids, so replaying
    the same admission sequence always reconstructs the same pool
    (the crash-safe resume contract of {!Pop_log}). *)

type member = {
  id : int;  (** admission order, unique within a population *)
  candidate : Pop_log.entry;  (** what produced it, as the log records it *)
  solution : Hypart_partition.Bipartition.t;
}

val beats : member -> member -> bool
(** Strict total order: legality first, then lower cut, then lower id
    (older wins ties — the deterministic tie-break every population
    decision uses). *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val size : t -> int

val members : t -> member list
(** In admission (id) order. *)

val best : t -> member option
(** The {!beats}-minimum member; [None] while empty. *)

val insert :
  t ->
  Pop_log.entry ->
  Hypart_partition.Bipartition.t ->
  member * member option
(** Admit a candidate with its solution; returns the new member and
    the member evicted to make room (possibly the candidate itself),
    or [None] while under capacity.  Pairwise similarities are cached
    across inserts, so admission costs one similarity scan against the
    pool, not a full pairwise recomputation. *)
