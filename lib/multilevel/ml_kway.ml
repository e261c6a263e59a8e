module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Problem = Hypart_partition.Problem
module Kway_fm = Hypart_fm.Kway_fm

(* the coarsest level has ~[k x coarsest_size] vertices *)
let scheme = Matching.Edge_coarsening
let coarsest_size = 30
let coarsest_starts = 10
let refine_passes = 4

let run ?(tolerance = 0.10) ~k rng h =
  if k < 2 then invalid_arg "Ml_kway.run: k must be >= 2";
  if k > H.num_vertices h then invalid_arg "Ml_kway.run: k exceeds vertex count";
  (* size the domain's workspace for the finest level before the
     coarsest-level starts *)
  Kway_fm.reserve ~k ~rng h;
  (* clusters must stay well under a part's weight slack *)
  let total = H.total_vertex_weight h in
  let max_cluster_weight =
    max 1 (int_of_float (tolerance *. float_of_int total /. float_of_int k /. 2.0))
  in
  let problem = Problem.make ~tolerance h in
  let hier =
    Coarsen.build ~scheme ~rng
      ~coarsest_size:(coarsest_size * k)
      ~max_cluster_weight problem
  in
  let coarse_h, _ = Coarsen.coarsest hier in
  (* best-of-N initial k-way partitioning at the coarsest level; the
     stats count every start and every level's refinement *)
  let start () = Kway_fm.run_random_start ~tolerance ~k rng coarse_h in
  let coarsest = ref (start ()) in
  let stats = ref !coarsest.Kway_fm.stats in
  let count (r : Kway_fm.result) =
    stats := Hypart_engine.Engine.Result.add_stats !stats r.Kway_fm.stats;
    r
  in
  for _ = 2 to coarsest_starts do
    let r = count (start ()) in
    if Kway_fm.better r !coarsest then coarsest := r
  done;
  (* uncoarsen: project through each level's cluster map and refine *)
  let finest =
    List.fold_left
      (fun (result : Kway_fm.result) (fine_h, _, (level : Coarsen.level)) ->
        let part_of = result.Kway_fm.part_of in
        count
          (Kway_fm.run ~max_passes:refine_passes ~tolerance ~k rng fine_h
             (Array.map (fun c -> part_of.(c)) level.Coarsen.cluster_of)))
      !coarsest
      (Coarsen.refinement_steps hier)
  in
  { finest with Kway_fm.stats = !stats }
