module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Tel = Hypart_telemetry.Control
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace

type level = {
  coarse : H.t;
  cluster_of : int array;
  coarse_fixed : int array;
}

type hierarchy = { problem : Problem.t; levels : level list }

let coarsest hier =
  match List.rev hier.levels with
  | [] -> (hier.problem.Problem.hypergraph, hier.problem.Problem.fixed)
  | last :: _ -> (last.coarse, last.coarse_fixed)

let build ~scheme ~rng ~coarsest_size ~max_cluster_weight ?restrict_to_parts
    problem =
  Trace.begin_span "ml.coarsen";
  let rec go h fixed part levels =
    if H.num_vertices h <= coarsest_size then List.rev levels
    else begin
      (* cooperative cancellation between levels: the levels built so
         far are discarded with the run *)
      (try Hypart_engine.Cancel.check ()
       with Hypart_engine.Cancel.Cancelled as e ->
         Trace.end_span "ml.coarsen" ~args:[ ("cancelled", 1.) ];
         raise e);
      Trace.begin_span "ml.coarsen.level";
      let cluster_of, num_clusters =
        Matching.compute ~scheme ~rng ~max_cluster_weight ~fixed
          ?restrict_to_parts:part h
      in
      (* stagnation: if matching merged almost nothing, stop *)
      if num_clusters > H.num_vertices h * 9 / 10 then begin
        Trace.end_span "ml.coarsen.level"
          ~args:
            [
              ("vertices", float_of_int (H.num_vertices h));
              ("clusters", float_of_int num_clusters);
              ("stagnated", 1.0);
            ];
        List.rev levels
      end
      else begin
        let coarse, _edge_map = H.contract h ~cluster_of ~num_clusters in
        let coarse_fixed = Array.make num_clusters (-1) in
        Array.iteri
          (fun v s -> if s >= 0 then coarse_fixed.(cluster_of.(v)) <- s)
          fixed;
        let coarse_part =
          Option.map
            (fun p ->
              let cp = Array.make num_clusters 0 in
              Array.iteri (fun v c -> cp.(c) <- p.(v)) cluster_of;
              cp)
            part
        in
        Trace.end_span "ml.coarsen.level"
          ~args:
            [
              ("vertices", float_of_int (H.num_vertices h));
              ("clusters", float_of_int num_clusters);
              ("coarse_edges", float_of_int (H.num_edges coarse));
            ];
        if Tel.is_enabled () then begin
          Metrics.incr "ml.coarsen_levels";
          Metrics.observe "ml.level_vertices" (float_of_int num_clusters);
          Metrics.observe "ml.level_edges" (float_of_int (H.num_edges coarse))
        end;
        let level = { coarse; cluster_of; coarse_fixed } in
        go coarse coarse_fixed coarse_part (level :: levels)
      end
    end
  in
  let levels =
    go problem.Problem.hypergraph problem.Problem.fixed restrict_to_parts []
  in
  Trace.end_span "ml.coarsen"
    ~args:
      [
        ( "finest_vertices",
          float_of_int (H.num_vertices problem.Problem.hypergraph) );
        ("levels", float_of_int (List.length levels));
      ];
  { problem; levels }

let refinement_steps hier =
  let rec go fine_h fine_fixed = function
    | [] -> []
    | level :: rest ->
      (fine_h, fine_fixed, level) :: go level.coarse level.coarse_fixed rest
  in
  List.rev
    (go hier.problem.Problem.hypergraph hier.problem.Problem.fixed hier.levels)

let project level coarse_sol ~fine =
  let side =
    Array.map (fun c -> Bipartition.side coarse_sol c) level.cluster_of
  in
  Bipartition.make fine side
