(* A tour of the partitioning landscape the paper's experiments sit in:
   the historical KL baseline, the spectral EIG1 ratio-cut relaxation,
   flat FM/CLIP and the multilevel engine, compared on one instance in
   both quality and runtime — ending with the non-dominated frontier
   the paper recommends reporting (§3.2).

   Run with: dune exec examples/baselines.exe *)

module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config
module Ml = Hypart_multilevel.Ml_partitioner
module Ml_engines = Hypart_multilevel.Ml_engines
module Engine = Hypart_engine.Engine
module Kl = Hypart_kl.Kl
module Spectral = Hypart_spectral.Spectral
module Pareto = Hypart_stats.Pareto

let () =
  let h = Suite.instance ~scale:16.0 "ibm01" in
  Format.printf "%a@.@." H.pp h;
  let problem = Problem.make ~tolerance:0.10 h in
  let module B = Hypart_partition.Bipartition in
  (* every heuristic returns the engine record *)
  let timed f =
    let t0 = Sys.time () in
    let r = f () in
    (r.Engine.Result.cut, r.Engine.Result.solution, Sys.time () -. t0)
  in
  let entries =
    [
      ("KL (1970)", timed (fun () -> Kl.run_random_start (Rng.create 1) problem));
      ("Spectral EIG1", timed (fun () -> Spectral.run (Rng.create 1) problem));
      ( "Simulated ann.",
        timed (fun () ->
            Hypart_sa.Sa_partitioner.run ~moves_per_vertex:60 (Rng.create 1) problem) );
      ( "flat LIFO FM",
        timed (fun () ->
            Fm.run_random_start ~config:Fm_config.strong_lifo (Rng.create 1) problem) );
      ( "flat CLIP FM",
        timed (fun () ->
            Fm.run_random_start ~config:Fm_config.strong_clip (Rng.create 1) problem) );
      ("ML CLIP", timed (fun () -> Ml.run ~config:Ml.ml_clip (Rng.create 1) problem));
      ( "ML CLIP x8 + V",
        timed (fun () ->
            let rng = Rng.create 1 in
            fst
              (Engine.multistart
                 ~polish_best:(Ml_engines.vcycle_polish ~config:Ml.ml_clip rng problem)
                 Ml_engines.mlclip rng problem ~starts:8)) );
    ]
  in
  Printf.printf "%-16s %8s %10s %14s\n" "heuristic" "cut" "CPU s" "split %";
  List.iter
    (fun (name, (cut, sol, dt)) ->
      let w0 = float_of_int (B.part_weight sol 0) in
      let total = float_of_int (H.total_vertex_weight h) in
      Printf.printf "%-16s %8d %10.3f %8.0f/%.0f\n" name cut dt
        (100. *. w0 /. total)
        (100. *. (1. -. (w0 /. total))))
    entries;
  print_endline
    "\nNote the spectral row: ratio cut tolerates a lopsided split, so its\n\
     raw cut is not comparable to the balance-constrained rows — the\n\
     paper's point that comparisons must be \"apples to apples\".";
  (* frontier over the balance-constrained heuristics only *)
  let points =
    List.filter_map
      (fun (name, (cut, sol, dt)) ->
        if B.is_legal sol problem.Hypart_partition.Problem.balance then
          Some { Pareto.label = name; cost = float_of_int cut; runtime = dt }
        else None)
      entries
  in
  print_endline "\nnon-dominated frontier among balance-legal heuristics:";
  List.iter
    (fun p ->
      Printf.printf "  %-16s cut %.0f  %.3fs\n" p.Pareto.label p.Pareto.cost
        p.Pareto.runtime)
    (Pareto.frontier points)
