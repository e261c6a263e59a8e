(* Reference contraction: the straightforward per-net lists and
   polymorphic-equality hash buckets that [Hypergraph.contract] used
   before it became a flat-buffer kernel.  Tests compare the kernel
   against it bit for bit.

   Returns the coarse structure as plain arrays — pins of each coarse
   net (sorted), coarse net weights, coarse vertex weights — plus
   [edge_map], so no hypergraph constructor (and none of its weight
   validation) sits between the reference and the comparison. *)

module H = Hypart_hypergraph.Hypergraph

let hash_pins pins =
  let h = ref 0x345678 in
  Array.iter (fun p -> h := (!h * 1000003) lxor p) pins;
  !h land max_int

let contract h ~cluster_of ~num_clusters =
  let vertex_weight = Array.make num_clusters 0 in
  for v = 0 to H.num_vertices h - 1 do
    let c = cluster_of.(v) in
    vertex_weight.(c) <- vertex_weight.(c) + H.vertex_weight h v
  done;
  (* translate and deduplicate each net's pins; drop size-1 nets *)
  let mark = Array.make (max num_clusters 1) (-1) in
  let tmp = Array.make num_clusters 0 in
  let kept_pins = ref [] and kept_meta = ref [] in
  for e = 0 to H.num_edges h - 1 do
    let n = ref 0 in
    H.iter_pins h e (fun v ->
        let c = cluster_of.(v) in
        if mark.(c) <> e then begin
          mark.(c) <- e;
          tmp.(!n) <- c;
          incr n
        end);
    if !n >= 2 then begin
      let pins = Array.sub tmp 0 !n in
      Array.sort compare pins;
      kept_pins := pins :: !kept_pins;
      kept_meta := (e, H.edge_weight h e) :: !kept_meta
    end
  done;
  let kept_pins = Array.of_list (List.rev !kept_pins) in
  let kept_meta = Array.of_list (List.rev !kept_meta) in
  let n_kept = Array.length kept_pins in
  (* merge identical nets; the first occurrence represents them *)
  let table : (int, int list ref) Hashtbl.t = Hashtbl.create (2 * n_kept + 1) in
  let rep = Array.make n_kept (-1) in
  let rep_weight = Array.make n_kept 0 in
  for k = 0 to n_kept - 1 do
    let pins = kept_pins.(k) in
    let key = hash_pins pins in
    let bucket =
      match Hashtbl.find_opt table key with
      | Some b -> b
      | None ->
        let b = ref [] in
        Hashtbl.add table key b;
        b
    in
    let _, w = kept_meta.(k) in
    match List.find_opt (fun k' -> kept_pins.(k') = pins) !bucket with
    | Some k' ->
      rep.(k) <- rep.(k');
      rep_weight.(rep.(k)) <- rep_weight.(rep.(k)) + w
    | None ->
      bucket := k :: !bucket;
      rep.(k) <- k;
      rep_weight.(k) <- w
  done;
  let coarse_id = Array.make n_kept (-1) in
  let next = ref 0 in
  for k = 0 to n_kept - 1 do
    if rep.(k) = k then begin
      coarse_id.(k) <- !next;
      incr next
    end
  done;
  let edges = Array.make !next [||] and edge_weight = Array.make !next 0 in
  for k = 0 to n_kept - 1 do
    if rep.(k) = k then begin
      edges.(coarse_id.(k)) <- kept_pins.(k);
      edge_weight.(coarse_id.(k)) <- rep_weight.(k)
    end
  done;
  let edge_map = Array.make (H.num_edges h) (-1) in
  for k = 0 to n_kept - 1 do
    let e, _ = kept_meta.(k) in
    edge_map.(e) <- coarse_id.(rep.(k))
  done;
  (edges, edge_weight, vertex_weight, edge_map)
