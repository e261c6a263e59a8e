(** Per-domain scratch workspace for the FM engine.

    [Fm.run] needs O(V+E) arrays (pin counts per side, gains,
    the per-pass move stack, the two CLIP ordering arrays, and the
    incremental-repair stamp/touch arrays), the CLIP counting-sort
    buckets (one per key the gain container can hold) and the gain
    container's link arrays.  Each domain keeps one workspace in a
    [Domain.DLS] slot, and every run on that domain — every start,
    level, V-cycle and served request — borrows it, so a domain
    allocates once and again only when an instance outgrows the slot.

    A workspace fits any hypergraph with no more vertices and edges
    than its capacity, which is what lets one slot serve a whole
    multilevel hierarchy.  The slot is domain-local, so concurrent
    domains never share one; runs are sequential within a domain, so a
    run owns the slot until it returns (or raises — every run
    re-prepares the state it reads).  Reused runs are bit-identical to
    runs on a freshly spawned domain (property-tested).  Reuse is
    observable via the [fm.workspace_creates] / [fm.workspace_reuses]
    telemetry counters.

    The record fields are exposed for the engine's hot loops; treat
    them as private elsewhere. *)

module H := Hypart_hypergraph.Hypergraph

type t = {
  num_vertices : int;  (** capacity: largest vertex count served *)
  num_edges : int;  (** capacity: largest edge count served *)
  count0 : int array;  (** pins of net [e] on side 0 *)
  count1 : int array;
  gain : int array;  (** current actual gain per vertex *)
  move_stack : int array;  (** moves applied during the current pass *)
  order : int array;  (** CLIP populate: insertable ids, ascending *)
  sorted : int array;  (** CLIP populate: [order] by [(gain, id)] *)
  mutable gain_count : int array;
      (** CLIP populate counting-sort buckets, longer than the
          container's [max_key] (a gain range never exceeds it) *)
  edge_stamp : int array;  (** generation a net's counts last changed *)
  vertex_stamp : int array;  (** generation a gain was last repaired *)
  touched : int array;  (** nets touched during the current pass *)
  mutable n_touched : int;
  mutable generation : int;  (** bumped once per pass, never reset *)
  mutable container : Gain_container.t;
  keyed_for : H.t Weak.t;
      (** instance {!required_key} was computed for, held weakly so the
          slot never keeps an evicted instance alive *)
  mutable required_key : int;
}

val acquire :
  insertion:Fm_config.insertion_order -> rng:Hypart_rng.Rng.t -> H.t -> t
(** [acquire ~insertion ~rng h] returns the calling domain's workspace
    prepared for a run on [h]: the gain container uses [insertion] and
    draws from [rng], and its key range covers [h]'s gain bound.  When
    [h] does not fit, the slot is replaced by a workspace covering both
    the old capacity and [h] (counted as [fm.workspace_creates]);
    otherwise the run reuses it ([fm.workspace_reuses]). *)

val reserve :
  insertion:Fm_config.insertion_order -> rng:Hypart_rng.Rng.t -> H.t -> unit
(** [reserve ~insertion ~rng h] grows the calling domain's workspace to
    fit [h] if it does not already.  Multilevel runs reserve for their
    finest hypergraph before refining coarse levels first, so a cold
    domain allocates once per run rather than once per level. *)

val max_weighted_degree : H.t -> int
(** Maximum over vertices of the sum of incident edge weights — the
    gain bound that sizes the container's bucket range. *)
