module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Balance = Hypart_partition.Balance
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config

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

(* Fine hypergraph/fixed preceding each level of the hierarchy, in
   coarse-to-fine refinement order:
   [(fine_h, fine_fixed, level); ...] with the coarsest level first. *)
let refinement_steps (hier : Coarsen.hierarchy) =
  let problem = hier.Coarsen.problem in
  let rec go fine_h fine_fixed = function
    | [] -> []
    | (level : Coarsen.level) :: rest ->
      (fine_h, fine_fixed, level)
      :: go level.Coarsen.coarse level.Coarsen.coarse_fixed rest
  in
  List.rev
    (go problem.Problem.hypergraph problem.Problem.fixed hier.Coarsen.levels)

(* Size the domain's FM workspace for the finest hypergraph before the
   coarsest level's runs, so a cold domain allocates once per run
   instead of regrowing at every uncoarsening level. *)
let reserve_workspace config rng problem =
  Hypart_fm.Fm_workspace.reserve ~insertion:config.fm.Fm_config.insertion ~rng
    problem.Problem.hypergraph

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
    (fun (result : Fm.result) (fine_h, fine_fixed, level) ->
      Trace.begin_span "ml.refine";
      let fine_problem = Problem.with_balance ~fixed:fine_fixed balance fine_h in
      let projected = Coarsen.project level result.Fm.solution ~fine:fine_h in
      let refined = refine config rng fine_problem projected in
      Trace.end_span "ml.refine"
        ~args:
          [
            ("vertices", float_of_int (H.num_vertices fine_h));
            ("cut_before", float_of_int result.Fm.cut);
            ("cut_after", float_of_int refined.Fm.cut);
          ];
      Log.debug (fun m ->
          m "refine at %d vertices: cut %d -> %d" (H.num_vertices fine_h)
            result.Fm.cut refined.Fm.cut);
      { refined with Fm.stats = Fm.add_stats result.Fm.stats refined.Fm.stats })
    coarsest_result (refinement_steps hier)

let initial_at_coarsest config rng problem =
  Trace.begin_span "ml.initial";
  let fm = config.fm in
  let best = ref None in
  for _ = 1 to max 1 config.coarsest_starts do
    let r = Fm.run_random_start ~config:fm rng problem in
    (* the best start, carrying the stats of every start so far *)
    best :=
      Some
        (match !best with
        | None -> r
        | Some (b : Fm.result) ->
          let stats = Fm.add_stats b.Fm.stats r.Fm.stats in
          if (r.Fm.legal && not b.Fm.legal) || (r.Fm.legal = b.Fm.legal && r.Fm.cut < b.Fm.cut)
          then { r with Fm.stats }
          else { b with Fm.stats })
  done;
  let best = Option.get !best in
  Trace.end_span "ml.initial"
    ~args:
      [
        ("starts", float_of_int (max 1 config.coarsest_starts));
        ("cut", float_of_int best.Fm.cut);
      ];
  best

let run_once ?restrict_to_parts config rng problem =
  reserve_workspace config rng problem;
  let hier =
    Coarsen.build ~scheme:config.scheme ~rng ~coarsest_size:config.coarsest_size
      ~max_cluster_weight:(cluster_weight_cap problem config.coarsest_size)
      ?restrict_to_parts problem
  in
  let coarse_h, coarse_fixed = Coarsen.coarsest hier in
  let coarse_problem =
    Problem.with_balance ~fixed:coarse_fixed problem.Problem.balance coarse_h
  in
  let coarsest_result =
    match restrict_to_parts with
    | None -> initial_at_coarsest config rng coarse_problem
    | Some part ->
      (* V-cycle: the projected current partition is the start *)
      let coarse_side = Array.make (H.num_vertices coarse_h) 0 in
      let fine_to_coarse v =
        List.fold_left
          (fun v (level : Coarsen.level) -> level.Coarsen.cluster_of.(v))
          v hier.Coarsen.levels
      in
      Array.iteri (fun v s -> coarse_side.(fine_to_coarse v) <- s) part;
      let sol = Bipartition.make coarse_h coarse_side in
      refine config rng coarse_problem sol
  in
  uncoarsen config rng hier coarsest_result

let vcycle ?(config = default) rng problem solution =
  Trace.begin_span "ml.vcycle";
  let before_cut = Bipartition.cut problem.Problem.hypergraph solution in
  let before_legal = Bipartition.is_legal solution problem.Problem.balance in
  let part = Bipartition.assignment solution in
  let r = run_once ~restrict_to_parts:part config rng problem in
  let keep_new =
    (r.Fm.legal && not before_legal)
    || (r.Fm.legal = before_legal && r.Fm.cut <= before_cut)
  in
  if Tel.is_enabled () then begin
    Metrics.incr "ml.vcycles";
    if keep_new && r.Fm.cut < before_cut then Metrics.incr "ml.vcycle_improvements"
  end;
  Trace.end_span "ml.vcycle"
    ~args:
      [
        ("cut_before", float_of_int before_cut);
        ("cut_after", float_of_int (if keep_new then r.Fm.cut else before_cut));
      ];
  if keep_new then r
  else
    {
      r with
      Fm.solution = Bipartition.copy solution;
      cut = before_cut;
      legal = before_legal;
    }

(* Cut-respecting recombination (memetic multilevel, PAPERS.md): the
   overlay label [2*side_a(v) + side_b(v)] partitions the vertices into
   the (up to) four agreement regions of the two parents; matching
   compares restriction labels for equality, so no cluster ever
   straddles either parent's cut.  Projecting the better parent onto
   the coarsest hypergraph is therefore well-defined per cluster and
   preserves its cut exactly, and refinement can only improve it. *)
let recombine ?(config = default) rng problem parent_a parent_b =
  Trace.begin_span "ml.recombine";
  reserve_workspace config rng problem;
  let h = problem.Problem.hypergraph in
  let balance = problem.Problem.balance in
  let cut_a = Bipartition.cut h parent_a in
  let legal_a = Bipartition.is_legal parent_a balance in
  let cut_b = Bipartition.cut h parent_b in
  let legal_b = Bipartition.is_legal parent_b balance in
  let best, best_cut, best_legal =
    if (legal_a && not legal_b) || (legal_a = legal_b && cut_a <= cut_b) then
      (parent_a, cut_a, legal_a)
    else (parent_b, cut_b, legal_b)
  in
  let overlay =
    Array.init (H.num_vertices h) (fun v ->
        (2 * Bipartition.side parent_a v) + Bipartition.side parent_b v)
  in
  let hier =
    Coarsen.build ~scheme:config.scheme ~rng ~coarsest_size:config.coarsest_size
      ~max_cluster_weight:(cluster_weight_cap problem config.coarsest_size)
      ~restrict_to_parts:overlay problem
  in
  let coarse_h, coarse_fixed = Coarsen.coarsest hier in
  let coarse_problem =
    Problem.with_balance ~fixed:coarse_fixed balance coarse_h
  in
  let coarse_side = Array.make (H.num_vertices coarse_h) 0 in
  let fine_to_coarse v =
    List.fold_left
      (fun v (level : Coarsen.level) -> level.Coarsen.cluster_of.(v))
      v hier.Coarsen.levels
  in
  Array.iteri
    (fun v s -> coarse_side.(fine_to_coarse v) <- s)
    (Bipartition.assignment best);
  let sol = Bipartition.make coarse_h coarse_side in
  let refined = refine config rng coarse_problem sol in
  let r = uncoarsen config rng hier refined in
  let keep_new =
    (r.Fm.legal && not best_legal)
    || (r.Fm.legal = best_legal && r.Fm.cut <= best_cut)
  in
  if Tel.is_enabled () then begin
    Metrics.incr "ml.recombines";
    if keep_new && r.Fm.cut < best_cut then
      Metrics.incr "ml.recombine_improvements"
  end;
  Trace.end_span "ml.recombine"
    ~args:
      [
        ("cut_a", float_of_int cut_a);
        ("cut_b", float_of_int cut_b);
        ("cut_after", float_of_int (if keep_new then r.Fm.cut else best_cut));
      ];
  if keep_new then r
  else
    {
      r with
      Fm.solution = Bipartition.copy best;
      cut = best_cut;
      legal = best_legal;
    }

let run ?(config = default) rng problem =
  Trace.span "ml.run" (fun () ->
      let r = run_once config rng problem in
      let rec cycle i (r : Fm.result) =
        if i >= config.vcycles then r
        else begin
          let r' = vcycle ~config rng problem r.Fm.solution in
          let r' = { r' with Fm.stats = Fm.add_stats r.Fm.stats r'.Fm.stats } in
          if r'.Fm.cut < r.Fm.cut then cycle (i + 1) r' else r'
        end
      in
      cycle 0 r)
