module H = Hypart_hypergraph.Hypergraph
module Csr = Hypart_hypergraph.Hypergraph.Csr
module Rng = Hypart_rng.Rng

type scheme =
  | Edge_coarsening
  | Heavy_edge
  | First_choice
  | Hyperedge_coarsening

(* The schemes read the CSR vectors directly in index loops: no
   per-vertex iterator closures.  The reader is top-level so it inlines
   without flambda (a local one becomes a closure call per pin). *)
let[@inline] ba (a : H.i32) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

(* [restrict_to_parts] as an array plus a flag, so the hot loops test
   an int instead of matching an option per pin. *)
let parts_of = function None -> (false, [||]) | Some p -> (true, p)

(* nets larger than this are ignored when scoring *)
let skip_nets_above = 64

(* The touched neighbour with the highest positive score, ties to the
   lower id; -1 when none scored. *)
let best_candidate score touched n_touched =
  let best = ref (-1) and best_score = ref 0.0 in
  for i = 0 to n_touched - 1 do
    let u = touched.(i) in
    if score.(u) > !best_score
       || (score.(u) = !best_score && !best >= 0 && u < !best)
    then begin
      best := u;
      best_score := score.(u)
    end
  done;
  !best

(* Neighbour matching (EC / heavy-edge / FirstChoice): visit vertices in
   random order and join each unclustered vertex to its best-scoring
   neighbour.  A pair scheme only offers unclustered neighbours, so every
   cluster is a pair or a singleton; FirstChoice also offers clustered
   ones, whose cluster [v] then joins, so clusters grow beyond pairs
   (bounded by the weight cap).  The scheme decides only the net's
   weight in the score and whether clustered neighbours are offered. *)
let neighbour_matching ~scheme ~rng ~max_cluster_weight ~fixed ~restrict_to_parts h =
  let n = H.num_vertices h in
  let voff = Csr.vertex_offset h and vedges = Csr.vertex_edges h in
  let eoff = Csr.edge_offset h and epins = Csr.edge_pins h in
  let vw = Csr.vertex_weight h and ew = Csr.edge_weight h in
  let restricted, part = parts_of restrict_to_parts in
  let heavy = scheme = Heavy_edge and grow = scheme = First_choice in
  let cluster_of = Array.make n (-1) in
  (* a cluster's weight and fixed side, kept only when clusters grow *)
  let cluster_weight = if grow then Array.make n 0 else [||] in
  let cluster_fixed = if grow then Array.make n (-1) else [||] in
  let next_cluster = ref 0 in
  let score = Array.make n 0.0 in
  let stamp = Array.make n (-1) in
  let touched = Array.make n 0 in
  let order = Rng.permutation rng n in
  for oi = 0 to n - 1 do
    let v = order.(oi) in
    if cluster_of.(v) = -1 then begin
      let wv = ba vw v and fv = fixed.(v) in
      let pv = if restricted then part.(v) else 0 in
      let n_touched = ref 0 in
      for i = ba voff v to ba voff (v + 1) - 1 do
        let e = ba vedges i in
        let lo = ba eoff e and hi = ba eoff (e + 1) in
        let size = hi - lo in
        if size <= skip_nets_above then begin
          let w =
            if heavy then float_of_int (ba ew e)
            else float_of_int (ba ew e) /. float_of_int (size - 1)
          in
          for j = lo to hi - 1 do
            let u = ba epins j in
            (* joinable: u alone (or u's cluster) takes v's weight,
               agrees with v's fixed side and lies in v's part *)
            let cu = cluster_of.(u) in
            if (if cu = -1 then
                  u <> v
                  && wv + ba vw u <= max_cluster_weight
                  && (fv < 0 || fixed.(u) < 0 || fv = fixed.(u))
                else
                  grow
                  && wv + cluster_weight.(cu) <= max_cluster_weight
                  && (fv < 0 || cluster_fixed.(cu) < 0 || fv = cluster_fixed.(cu)))
               && ((not restricted) || part.(u) = pv)
            then begin
              if stamp.(u) <> v then begin
                stamp.(u) <- v;
                score.(u) <- 0.0;
                touched.(!n_touched) <- u;
                incr n_touched
              end;
              score.(u) <- score.(u) +. w
            end
          done
        end
      done;
      let u = best_candidate score touched !n_touched in
      if u >= 0 && cluster_of.(u) >= 0 then begin
        let c = cluster_of.(u) in
        cluster_of.(v) <- c;
        cluster_weight.(c) <- cluster_weight.(c) + wv;
        if fv >= 0 then cluster_fixed.(c) <- fv
      end
      else begin
        (* a fresh cluster: v's own, or v paired with u *)
        let c = !next_cluster in
        incr next_cluster;
        cluster_of.(v) <- c;
        if u >= 0 then cluster_of.(u) <- c;
        if grow then begin
          cluster_weight.(c) <- wv + (if u >= 0 then ba vw u else 0);
          cluster_fixed.(c) <- (if fv >= 0 then fv else if u >= 0 then fixed.(u) else -1)
        end
      end
    end
  done;
  (cluster_of, !next_cluster)

(* Hyperedge coarsening: contract whole small nets whose pins are all
   still unclustered; leftovers become singletons. *)
let hyperedge_coarsening ~rng ~max_cluster_weight ~fixed ~restrict_to_parts h =
  let n = H.num_vertices h in
  let ne = H.num_edges h in
  let eoff = Csr.edge_offset h and epins = Csr.edge_pins h in
  let vw = Csr.vertex_weight h in
  let restricted, part = parts_of restrict_to_parts in
  let cluster_of = Array.make n (-1) in
  let next_cluster = ref 0 in
  (* increasing size, random tie-break (via a shuffled base order);
     [Array.sort] is not stable, so the tie order is whatever it makes
     of the shuffle — keep it, any other sort would reorder ties *)
  let size = Array.init ne (fun e -> ba eoff (e + 1) - ba eoff e) in
  let order = Rng.permutation rng ne in
  Array.sort (fun a b -> Int.compare size.(a) size.(b)) order;
  for oi = 0 to ne - 1 do
    let e = order.(oi) in
    let lo = ba eoff e and hi = ba eoff (e + 1) in
    let s = hi - lo in
    if s >= 2 && s <= skip_nets_above then begin
      (* contractible: every pin free, no two fixed sides, one part,
         total weight under the cap *)
      let ok = ref true and weight = ref 0 in
      let fixed_side = ref (-1) in
      let part_id = if restricted then part.(ba epins lo) else 0 in
      let j = ref lo in
      while !ok && !j < hi do
        let v = ba epins !j in
        if cluster_of.(v) <> -1 then ok := false;
        weight := !weight + ba vw v;
        let fx = fixed.(v) in
        if fx >= 0 then
          if !fixed_side = -1 then fixed_side := fx
          else if !fixed_side <> fx then ok := false;
        if restricted && part.(v) <> part_id then ok := false;
        incr j
      done;
      if !ok && !weight <= max_cluster_weight then begin
        let c = !next_cluster in
        incr next_cluster;
        for j = lo to hi - 1 do
          cluster_of.(ba epins j) <- c
        done
      end
    end
  done;
  for v = 0 to n - 1 do
    if cluster_of.(v) = -1 then begin
      cluster_of.(v) <- !next_cluster;
      incr next_cluster
    end
  done;
  (cluster_of, !next_cluster)

let compute ~scheme ~rng ~max_cluster_weight ~fixed ?restrict_to_parts h =
  match scheme with
  | Edge_coarsening | Heavy_edge | First_choice ->
    neighbour_matching ~scheme ~rng ~max_cluster_weight ~fixed ~restrict_to_parts h
  | Hyperedge_coarsening ->
    hyperedge_coarsening ~rng ~max_cluster_weight ~fixed ~restrict_to_parts h
