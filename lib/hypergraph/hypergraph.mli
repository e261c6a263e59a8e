(** Weighted hypergraphs in compressed sparse row (CSR) form.

    A hypergraph [H = (V, E)] has integer-weighted vertices (cell areas)
    and integer-weighted hyperedges (net weights).  Both incidence
    directions are stored: edge -> pins and vertex -> incident edges, so
    that gain updates in FM-style partitioners touch contiguous memory.
    Constructors build only the edge -> pins direction; the vertex ->
    edges CSR is built by the first call that reads it ({!Csr},
    {!iter_edges}, {!vertex_degree}, {!max_vertex_degree}, {!stats}),
    once per instance even when domains race for it.  A request answered
    from the lab cache, which only fingerprints its instance, never pays
    for it.

    Storage is [(int32, c_layout)] Bigarray-1 vectors: half the memory
    of boxed [int array]s at million-vertex scale, GC-opaque, and
    byte-compatible with the packed on-disk instance format
    ({!Instance_store}), which maps files and wraps these views with
    zero copies.

    Values of type {!t} are immutable once built. *)

type t

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The storage type of every CSR vector. *)

(** {1 Construction} *)

val create :
  ?vertex_weights:int array ->
  ?edge_weights:int array ->
  num_vertices:int ->
  edges:int array array ->
  unit ->
  t
(** [create ~num_vertices ~edges ()] builds a hypergraph.  [edges.(e)]
    lists the pins (vertex ids in [0..num_vertices-1]) of hyperedge [e].
    Duplicate pins within an edge are merged.  Vertex weights default to
    1 (unit areas); edge weights default to 1.

    @raise Invalid_argument if a pin is out of range, a weight is
    non-positive or exceeds int32 range, or a weight array has the wrong
    length. *)

val of_int32_csr :
  num_vertices:int ->
  edge_offset:i32 ->
  edge_pins:i32 ->
  vertex_weight:i32 ->
  edge_weight:i32 ->
  t
(** [of_int32_csr] adopts already-built CSR vectors without copying —
    the constructor behind delta patches and ECO subproblems.  The vectors
    become the hypergraph's storage: the caller must not mutate them
    afterwards.  Requirements (checked, O(pins)): [edge_offset] has
    length [num_edges + 1], starts at 0, is monotone and ends at
    [dim edge_pins]; pins are in range and distinct within each edge;
    weights are positive.

    @raise Invalid_argument when a requirement fails. *)

val of_int32_csr_unchecked :
  num_vertices:int ->
  edge_offset:i32 ->
  edge_pins:i32 ->
  vertex_weight:i32 ->
  edge_weight:i32 ->
  t
(** {!of_int32_csr} without its checks, for a caller that has enforced
    every requirement itself: the [.hgr] reader rejects out-of-range
    and duplicate pins and bad weights with located errors while it
    parses, so a second O(pins) pass with an O(V) mark array would only
    repeat them.  A violated requirement goes undetected here. *)

val of_mapped_csr :
  num_vertices:int ->
  edge_offset:i32 ->
  edge_pins:i32 ->
  vertex_offset:i32 ->
  vertex_edges:i32 ->
  vertex_weight:i32 ->
  edge_weight:i32 ->
  t
(** Like {!of_int32_csr} but with the vertex -> edges CSR supplied as
    well (it is part of the packed binary format, so loading a mapped
    instance performs no CSR construction at all).  In addition to the
    {!of_int32_csr} checks, the vertex CSR is cross-checked against pin
    degrees and range-checked.

    @raise Invalid_argument when a check fails. *)

(** {1 Sizes} *)

val num_vertices : t -> int
val num_edges : t -> int
val num_pins : t -> int
(** Total pin count: sum of edge sizes. *)

val memory_bytes : t -> int
(** Resident bytes of the six CSR vectors (excludes the record itself).
    The vertex CSR counts whether it has been built yet or not, so the
    figure never changes over an instance's life. *)

(** {1 Incidence} *)

val edge_size : t -> int -> int

(* kept: the vertex-side twin of [edge_size]; test/incidence.ml sizes lists by it *)
val vertex_degree : t -> int -> int

(** Zero-copy view of the underlying CSR vectors, for flat index loops
    in engine hot paths (FM gain updates walk pin slices millions of
    times per run; going through the raw vectors avoids the closure call
    per element of {!iter_pins}/{!fold_edges}).

    The returned vectors are the hypergraph's own storage, {b not}
    copies: treat them as read-only.  Mutating them breaks the
    immutability contract of {!t} and every cached statistic.  The pins
    of edge [e] occupy [edge_pins.{edge_offset.{e}
    .. edge_offset.{e+1} - 1}]; the edges of vertex [v] occupy
    [vertex_edges.{vertex_offset.{v} .. vertex_offset.{v+1} - 1}];
    [vertex_weight]/[edge_weight] are indexed directly.  Elements are
    [int32]; hot loops read them as
    [Int32.to_int (Bigarray.Array1.unsafe_get a i)], which the compiler
    unboxes. *)
module Csr : sig
  type h := t

  val edge_offset : h -> i32
  val edge_pins : h -> i32
  val vertex_offset : h -> i32
  val vertex_edges : h -> i32
  val vertex_weight : h -> i32
  val edge_weight : h -> i32
end

val iter_pins : t -> int -> (int -> unit) -> unit
(** [iter_pins h e f] applies [f] to each pin of edge [e] without
    allocation. *)

val iter_edges : t -> int -> (int -> unit) -> unit
(** [iter_edges h v f] applies [f] to each edge incident to [v]. *)

val fold_pins : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
val fold_edges : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

(** {1 Weights} *)

val vertex_weight : t -> int -> int
val edge_weight : t -> int -> int
val total_vertex_weight : t -> int
val max_vertex_degree : t -> int

(** {1 Whole-graph queries} *)

val stats : t -> Stats_summary.t
(** Descriptive statistics of the instance (sizes, degree and net-size
    distributions, area spread); see {!Stats_summary}. *)

(** {1 Derived hypergraphs} *)

val contract : t -> cluster_of:int array -> num_clusters:int -> t * int array
(** [contract h ~cluster_of ~num_clusters] merges each cluster into a
    single coarse vertex ([cluster_of.(v)] in [0..num_clusters-1]).
    Pins are deduplicated per net; nets reduced to a single pin are
    dropped; nets with identical pin sets are merged, summing weights.
    Coarse vertex weights are sums of member weights.  Returns the
    coarse hypergraph and [edge_map], where [edge_map.(e)] is the coarse
    net that represents fine net [e], or [-1] when the net collapsed to
    a single pin and was dropped. *)

val reweight_edges : t -> weights:int array -> t
(** [reweight_edges h ~weights] is [h] with new hyperedge weights —
    the mechanism behind timing- or congestion-driven partitioning,
    where critical nets get boosted weights so min-cut avoids cutting
    them.  Structure is shared where possible.
    @raise Invalid_argument on wrong length or non-positive weights. *)

val induce : t -> keep:bool array -> t * int array
(** [induce h ~keep] restricts to the vertices with [keep.(v) = true].
    Nets are restricted to kept pins; nets left with fewer than two pins
    are dropped.  Returns the sub-hypergraph and the mapping old vertex
    id -> new id ([-1] when dropped). *)

val pp : Format.formatter -> t -> unit
(** Compact one-line description, e.g. ["hypergraph: 12752 vertices,
    14111 edges, 50566 pins"]. *)
