module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Problem = Hypart_partition.Problem
module Kway_fm = Hypart_fm.Kway_fm

type config = {
  scheme : Matching.scheme;
  coarsest_size : int;
  coarsest_starts : int;
  refine_passes : int;
}

let default =
  {
    scheme = Matching.Edge_coarsening;
    coarsest_size = 30;
    coarsest_starts = 10;
    refine_passes = 4;
  }

let run ?(config = default) ?(tolerance = 0.10) ~k rng h =
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
    Coarsen.build ~scheme:config.scheme ~rng
      ~coarsest_size:(config.coarsest_size * k)
      ~max_cluster_weight problem
  in
  let coarse_h, _ = Coarsen.coarsest hier in
  (* best-of-N initial k-way partitioning at the coarsest level *)
  let best = ref None in
  for _ = 1 to max 1 config.coarsest_starts do
    let r = Kway_fm.run_random_start ~tolerance ~k rng coarse_h in
    let better =
      match !best with
      | None -> true
      | Some (b : Kway_fm.result) ->
        (r.Kway_fm.legal && not b.Kway_fm.legal)
        || (r.Kway_fm.legal = b.Kway_fm.legal && r.Kway_fm.cut < b.Kway_fm.cut)
    in
    if better then best := Some r
  done;
  let coarsest = Option.get !best in
  (* uncoarsen: project through each level's cluster map and refine *)
  let steps =
    (* fine hypergraph preceding each level, coarse-to-fine *)
    let rec go fine_h = function
      | [] -> []
      | (level : Coarsen.level) :: rest ->
        (fine_h, level) :: go level.Coarsen.coarse rest
    in
    List.rev (go h hier.Coarsen.levels)
  in
  List.fold_left
    (fun (result : Kway_fm.result) (fine_h, (level : Coarsen.level)) ->
      let projected =
        Array.map
          (fun c -> result.Kway_fm.part_of.(c))
          level.Coarsen.cluster_of
      in
      Kway_fm.run ~max_passes:config.refine_passes ~tolerance ~k rng fine_h
        projected)
    coarsest steps
