(** The FM gain structure: per-partition arrays of gain buckets.

    Each free, unlocked vertex lives in the bucket of its current key
    (actual gain for classic FM; cumulative delta gain for CLIP) on the
    side it would move {e from}.  Buckets are intrusive doubly-linked
    lists over vertex ids, so insertion, removal and repositioning are
    O(1); the per-side maximum-gain pointer decays lazily.

    The container is where three of the paper's implicit decisions
    live: where a vertex lands within its bucket ({!Fm_config.insertion_order}),
    what happens when the head move of the highest bucket is illegal
    ({!Fm_config.illegal_head}), and whether zero-delta updates
    reposition ({!refresh} implements the [All_delta_gain] path). *)

type t

val create :
  num_vertices:int ->
  max_key:int ->
  insertion:Fm_config.insertion_order ->
  rng:Hypart_rng.Rng.t ->
  t
(** Keys must stay within [[-max_key, max_key]].  [rng] is consulted
    only for [Random] insertion. *)

val capacity : t -> int
(** The [num_vertices] the container was created with (ids must stay
    below it).  Used by workspace reuse to check that a cached
    container still fits a problem. *)

val max_key : t -> int
(** The key bound the container was created with. *)

val insertion : t -> Fm_config.insertion_order
(** The insertion order the container was created with. *)

val set_rng : t -> Hypart_rng.Rng.t -> unit
(** Redirect [Random] insertion draws to another generator.  Workspace
    reuse points a cached container at the current run's RNG so reused
    and fresh runs consume identical random streams. *)

val clear : t -> unit
(** Empty both sides.  O(occupied bucket range), not O(max_key): the
    scan is bounded by the lowest/highest bucket touched since the last
    clear, so clearing a nearly-empty container is cheap regardless of
    the key range. *)

val insert : t -> side:int -> key:int -> int -> unit
(** [insert c ~side ~key v] adds vertex [v].  [v] must not currently be
    in the container. *)

val remove : t -> int -> unit
(** [remove c v] unlinks [v].  No-op if absent. *)

val mem : t -> int -> bool
val key : t -> int -> int
(** Current key of a contained vertex. *)

val update_key : t -> int -> delta:int -> unit
(** [update_key c v ~delta] repositions [v] into bucket [key + delta]
    (per the insertion order).  [v] must be contained. *)

val refresh : t -> int -> unit
(** Remove and reinsert [v] at its current key — the observable effect
    of an [All_delta_gain] zero-delta update (LIFO refresh moves [v] to
    the head of its bucket). *)

val size : t -> int -> int
(** Number of vertices on the given side. *)

val select :
  t ->
  side:int ->
  legal:(int -> bool) ->
  illegal_head:Fm_config.illegal_head ->
  int
(** [select c ~side ~legal ~illegal_head] proposes the move for [side]:
    the head of the highest nonempty bucket, subject to the
    illegal-head policy.  Returns the vertex, or [-1] when the policy
    found no legal move on this side.  Whether at least one bucket head
    had to be skipped on the way (a corking event) is read afterwards
    with {!last_select_corked}.  Allocates nothing. *)

val last_select_corked : t -> bool
(** Whether the most recent {!select} call on this container skipped at
    least one illegal bucket head (including calls that returned
    [None]).  Used for the corking diagnostics of §2.3. *)

(* kept: exposes bucket order, which the container tests assert *)
val head_of_max_bucket : t -> side:int -> int option
(** Peek at the head of the highest nonempty bucket, ignoring legality
    (test hook). *)

type ops = { inserts : int; removes : int; repositions : int }

val ops : t -> ops
(** Lifetime operation counts for this container.  The three counters
    are disjoint: [inserts]/[removes] count only true {!insert} /
    {!remove} traffic, and {!update_key}/{!refresh} repositionings are
    counted solely in [repositions] (they no longer inflate the other
    two).  The FM engine flushes these into the telemetry metrics
    registry ([gain.*]) per run; since the engine removes a vertex
    exactly once per applied move, [gain.removes = fm.moves] holds. *)
