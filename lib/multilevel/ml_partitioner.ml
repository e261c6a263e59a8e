module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Balance = Hypart_partition.Balance
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config
module Result = Hypart_engine.Engine.Result

let log_src = Logs.Src.create "hypart.ml" ~doc:"multilevel partitioner tracing"

module Log = (val Logs.src_log log_src)
module Tel = Hypart_telemetry.Control
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace

type config = {
  fm : Fm_config.t;
  scheme : Matching.scheme;
  coarsest_size : int;
  coarsest_starts : int;
  refine_passes : int;
  boundary_refinement : bool;
  vcycles : int;
}

let default =
  {
    fm = Fm_config.strong_lifo;
    scheme = Matching.Edge_coarsening;
    coarsest_size = 120;
    coarsest_starts = 10;
    refine_passes = 4;
    boundary_refinement = false;
    vcycles = 0;
  }

let ml_lifo = default
let ml_clip = { default with fm = Fm_config.strong_clip }
let hmetis_like = { ml_clip with vcycles = 2 }

(* Cluster-weight cap: clusters must stay comfortably inside the
   balance slack (else coarse-level refinement cannot move anything),
   but not so small that coarsening stalls on tight tolerances. *)
let cluster_weight_cap problem coarsest_size =
  let b = problem.Problem.balance in
  let total = H.total_vertex_weight problem.Problem.hypergraph in
  max (Balance.slack b * 45 / 100) (total / (4 * coarsest_size))

(* Refine a projected solution at one level. *)
let refine config rng problem solution =
  let fm =
    {
      config.fm with
      Fm_config.max_passes = config.refine_passes;
      Fm_config.boundary_only = config.boundary_refinement;
    }
  in
  Fm.run ~config:fm rng problem solution

(* Uncoarsen [coarsest_result] through [hier], refining at every level;
   returns the finest-level result with the stats of every level's
   refinement added to [coarsest_result]'s. *)
let uncoarsen config rng hier coarsest_result =
  let problem = hier.Coarsen.problem in
  let balance = problem.Problem.balance in
  List.fold_left
    (fun (result : Result.t) (fine_h, fine_fixed, level) ->
      Trace.begin_span "ml.refine";
      let fine_problem = Problem.with_balance ~fixed:fine_fixed balance fine_h in
      let projected = Coarsen.project level result.solution ~fine:fine_h in
      let refined = refine config rng fine_problem projected in
      Trace.end_span "ml.refine"
        ~args:
          [
            ("vertices", float_of_int (H.num_vertices fine_h));
            ("cut_before", float_of_int result.cut);
            ("cut_after", float_of_int refined.cut);
          ];
      Log.debug (fun m ->
          m "refine at %d vertices: cut %d -> %d" (H.num_vertices fine_h)
            result.cut refined.cut);
      { refined with stats = Result.add_stats result.stats refined.stats })
    coarsest_result
    (Coarsen.refinement_steps hier)

let initial_at_coarsest config rng problem =
  Trace.begin_span "ml.initial";
  let best = ref None in
  for _ = 1 to max 1 config.coarsest_starts do
    let r = Fm.run_random_start ~config:config.fm rng problem in
    (* the best start, carrying the stats of every start so far *)
    best :=
      Some
        (match !best with
        | None -> r
        | Some (b : Result.t) ->
          let stats = Result.add_stats b.stats r.stats in
          if Result.better r b then { r with stats } else { b with stats })
  done;
  let best = Option.get !best in
  Trace.end_span "ml.initial"
    ~args:
      [
        ("starts", float_of_int (max 1 config.coarsest_starts));
        ("cut", float_of_int best.cut);
      ];
  best

(* Coarsen [problem] (restricted to [restrict_to_parts] when given)
   and return the hierarchy with its coarsest-level problem.  The
   domain's FM workspace is sized for the finest hypergraph first, so
   a cold domain allocates once per run instead of regrowing at every
   uncoarsening level. *)
let coarsen ?restrict_to_parts config rng problem =
  Hypart_fm.Fm_workspace.reserve ~insertion:config.fm.Fm_config.insertion ~rng
    problem.Problem.hypergraph;
  let hier =
    Coarsen.build ~scheme:config.scheme ~rng ~coarsest_size:config.coarsest_size
      ~max_cluster_weight:(cluster_weight_cap problem config.coarsest_size)
      ?restrict_to_parts problem
  in
  let coarse_h, coarse_fixed = Coarsen.coarsest hier in
  (hier, Problem.with_balance ~fixed:coarse_fixed problem.Problem.balance coarse_h)

let run_once config rng problem =
  let hier, coarse_problem = coarsen config rng problem in
  uncoarsen config rng hier (initial_at_coarsest config rng coarse_problem)

let evaluate problem solution =
  {
    Result.solution;
    cut = Bipartition.cut problem.Problem.hypergraph solution;
    legal = Problem.is_legal problem solution;
    stats = [];
  }

(* The restricted descent of V-cycles and recombinations: coarsen so
   that no cluster straddles two [labels], project [start] (constant
   on every label class) onto the coarsest level, and refine back up.
   The result is kept unless [start] is better; a tie keeps it.  Either
   way the stats are the descent's. *)
let descend config rng problem ~labels (start : Result.t) =
  let hier, coarse_problem = coarsen ~restrict_to_parts:labels config rng problem in
  let coarse_side =
    Array.make (H.num_vertices coarse_problem.Problem.hypergraph) 0
  in
  let fine_to_coarse v =
    List.fold_left
      (fun v (level : Coarsen.level) -> level.Coarsen.cluster_of.(v))
      v hier.Coarsen.levels
  in
  Array.iteri
    (fun v s -> coarse_side.(fine_to_coarse v) <- s)
    (Bipartition.assignment start.solution);
  let sol = Bipartition.make coarse_problem.Problem.hypergraph coarse_side in
  let r = uncoarsen config rng hier (refine config rng coarse_problem sol) in
  if Result.better start r then
    {
      r with
      solution = Bipartition.copy start.solution;
      cut = start.cut;
      legal = start.legal;
    }
  else r

let vcycle ?(config = default) rng problem solution =
  Trace.begin_span "ml.vcycle";
  let before = evaluate problem solution in
  let r =
    descend config rng problem ~labels:(Bipartition.assignment solution) before
  in
  if Tel.is_enabled () then begin
    Metrics.incr "ml.vcycles";
    if r.cut < before.cut then Metrics.incr "ml.vcycle_improvements"
  end;
  Trace.end_span "ml.vcycle"
    ~args:
      [
        ("cut_before", float_of_int before.cut);
        ("cut_after", float_of_int r.cut);
      ];
  r

(* Cut-respecting recombination (memetic multilevel, PAPERS.md): the
   overlay label [2*side_a(v) + side_b(v)] partitions the vertices into
   the (up to) four agreement regions of the two parents; matching
   compares restriction labels for equality, so no cluster ever
   straddles either parent's cut.  Projecting the better
   parent onto the coarsest hypergraph is therefore well-defined per
   cluster and preserves its cut exactly, and refinement can only
   improve it. *)
let recombine ?(config = default) rng problem parent_a parent_b =
  Trace.begin_span "ml.recombine";
  let a = evaluate problem parent_a and b = evaluate problem parent_b in
  let best = if Result.better b a then b else a in
  let overlay =
    Array.init (H.num_vertices problem.Problem.hypergraph) (fun v ->
        (2 * Bipartition.side parent_a v) + Bipartition.side parent_b v)
  in
  let r = descend config rng problem ~labels:overlay best in
  if Tel.is_enabled () then begin
    Metrics.incr "ml.recombines";
    if r.cut < best.cut then Metrics.incr "ml.recombine_improvements"
  end;
  Trace.end_span "ml.recombine"
    ~args:
      [
        ("cut_a", float_of_int a.cut);
        ("cut_b", float_of_int b.cut);
        ("cut_after", float_of_int r.cut);
      ];
  r

let run ?(config = default) rng problem =
  Trace.span "ml.run" (fun () ->
      let r = run_once config rng problem in
      let rec cycle i (r : Result.t) =
        if i >= config.vcycles then r
        else begin
          let r' = vcycle ~config rng problem r.solution in
          let r' = { r' with stats = Result.add_stats r.stats r'.stats } in
          if r'.cut < r.cut then cycle (i + 1) r' else r'
        end
      in
      cycle 0 r)
