module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Metrics = Hypart_telemetry.Metrics

(* Reusable scratch state for [Fm.run].  One workspace holds every
   O(V+E) array the engine needs; each domain keeps one in a DLS slot,
   so runs allocate once per domain instead of once per start/level.
   The stamp arrays never need clearing: they carry a monotonically
   increasing pass generation, so stale entries from earlier runs are
   simply never equal to the current generation. *)

type t = {
  num_vertices : int;
  num_edges : int;
  count0 : int array;         (* pins of net e on side 0 *)
  count1 : int array;
  gain : int array;           (* current actual gain per vertex *)
  move_stack : int array;     (* moves applied during the current pass *)
  order : int array;          (* CLIP populate: insertable ids, ascending *)
  sorted : int array;         (* CLIP populate: [order] by (gain, id) *)
  mutable gain_count : int array;
      (* CLIP populate counting-sort buckets; a gain range spans at most
         2 * max weighted degree + 1 <= the container's max_key values *)
  edge_stamp : int array;     (* generation a net's counts last changed *)
  vertex_stamp : int array;   (* generation a gain was last repaired *)
  touched : int array;        (* nets touched during the current pass *)
  mutable n_touched : int;
  mutable generation : int;   (* bumped once per pass, never reset *)
  mutable container : Gain_container.t;
  (* cache of the key bound required by the hypergraph the workspace
     was last prepared for, so repeated runs on the same instance skip
     the O(pins) weighted-degree scan; weak, because the slot outlives
     the run and must not pin an evicted instance in memory *)
  keyed_for : H.t Weak.t;
  mutable required_key : int;
}

(* top-level so it inlines without flambda, as in [Fm] *)
let[@inline] ba (a : H.i32) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

(* Runs on every multilevel level (the key cache holds one instance),
   so it is a flat CSR loop. *)
let max_weighted_degree h =
  let voff = H.Csr.vertex_offset h and vedges = H.Csr.vertex_edges h in
  let ew = H.Csr.edge_weight h in
  let m = ref 0 in
  for v = 0 to H.num_vertices h - 1 do
    let d = ref 0 in
    for i = ba voff v to ba voff (v + 1) - 1 do
      d := !d + ba ew (ba vedges i)
    done;
    if !d > !m then m := !d
  done;
  !m

(* Same key bound the engine has always used: twice the maximum
   weighted degree, plus one of slack. *)
let required_max_key h = (2 * max 1 (max_weighted_degree h)) + 1

let create ~num_vertices:n ~num_edges:ne ~insertion ~rng h =
  Metrics.incr "fm.workspace_creates";
  let max_key = required_max_key h in
  let keyed_for = Weak.create 1 in
  Weak.set keyed_for 0 (Some h);
  {
    num_vertices = n;
    num_edges = ne;
    count0 = Array.make ne 0;
    count1 = Array.make ne 0;
    gain = Array.make n 0;
    move_stack = Array.make n 0;
    order = Array.make n 0;
    sorted = Array.make n 0;
    gain_count = Array.make (max_key + 1) 0;
    edge_stamp = Array.make ne 0;
    vertex_stamp = Array.make n 0;
    touched = Array.make ne 0;
    n_touched = 0;
    generation = 0;
    container = Gain_container.create ~num_vertices:n ~max_key ~insertion ~rng;
    keyed_for;
    required_key = max_key;
  }

let fits t h = H.num_vertices h <= t.num_vertices && H.num_edges h <= t.num_edges

(* Point a reused workspace at a (run, hypergraph): make sure the
   cached container can hold the problem's vertices under the requested
   insertion order and key range (regrowing it once if not), and
   redirect its RNG at the current run's generator so reused and fresh
   runs are bit-identical. *)
let prepare t ~insertion ~rng h =
  let required =
    match Weak.get t.keyed_for 0 with
    | Some k when k == h -> t.required_key
    | _ ->
      let k = required_max_key h in
      Weak.set t.keyed_for 0 (Some h);
      t.required_key <- k;
      k
  in
  let c = t.container in
  if
    Gain_container.insertion c <> insertion
    || Gain_container.max_key c < required
  then begin
    let max_key = max required (Gain_container.max_key c) in
    t.container <-
      Gain_container.create ~num_vertices:t.num_vertices ~max_key ~insertion
        ~rng;
    if Array.length t.gain_count <= max_key then
      t.gain_count <- Array.make (max_key + 1) 0
  end
  else Gain_container.set_rng c rng

let slot : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Replace the slot by a workspace fitting [h] and the old capacity
   too, so instances alternating between many-vertex and many-edge
   shapes cannot thrash it. *)
let grow previous ~insertion ~rng h =
  let n, ne =
    match previous with
    | None -> (H.num_vertices h, H.num_edges h)
    | Some t ->
      (max t.num_vertices (H.num_vertices h), max t.num_edges (H.num_edges h))
  in
  let t = create ~num_vertices:n ~num_edges:ne ~insertion ~rng h in
  Domain.DLS.set slot (Some t);
  t

let acquire ~insertion ~rng h =
  match Domain.DLS.get slot with
  | Some t when fits t h ->
    Metrics.incr "fm.workspace_reuses";
    prepare t ~insertion ~rng h;
    t
  | previous -> grow previous ~insertion ~rng h

let reserve ~insertion ~rng h =
  match Domain.DLS.get slot with
  | Some t when fits t h -> ()
  | previous -> ignore (grow previous ~insertion ~rng h)
