(* Quickstart: build a hypergraph, partition it three ways, inspect the
   results.  Run with: dune exec examples/quickstart.exe *)

module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Objective = Hypart_partition.Objective
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config
module Ml = Hypart_multilevel.Ml_partitioner
module Ml_engines = Hypart_multilevel.Ml_engines
module Engine = Hypart_engine.Engine
module Suite = Hypart_generator.Ibm_suite

let () =
  (* 1. A hypergraph can be built directly: 6 cells, 4 nets.  Cell 4 is
     a macro with area 5. *)
  let tiny =
    H.create ~num_vertices:6
      ~vertex_weights:[| 1; 1; 1; 1; 5; 1 |]
      ~edges:[| [| 0; 1; 2 |]; [| 2; 3 |]; [| 3; 4; 5 |]; [| 0; 5 |] |]
      ()
  in
  Format.printf "tiny instance: %a@." H.pp tiny;

  (* 2. Wrap it in a problem: balance tolerance 20% (each side must hold
     40-60%% of the total area), no fixed cells. *)
  let problem = Problem.make ~tolerance:0.20 tiny in
  let rng = Rng.create 42 in
  let result = Fm.run_random_start ~config:Fm_config.strong_lifo rng problem in
  Printf.printf "FM cut: %d (legal: %b)\n" result.Engine.Result.cut result.Engine.Result.legal;
  Printf.printf "assignment:";
  for v = 0 to H.num_vertices tiny - 1 do
    Printf.printf " %d:%d" v (Bipartition.side result.Engine.Result.solution v)
  done;
  print_newline ();
  Printf.printf "ratio cut: %.3f, absorption: %.3f\n\n"
    (Objective.evaluate Objective.Ratio_cut tiny result.Engine.Result.solution)
    (Objective.evaluate Objective.Absorption tiny result.Engine.Result.solution);

  (* 3. Realistic scale: a synthetic twin of ISPD98 ibm01 (scaled 8x
     down), partitioned at the paper's 2%% tolerance by flat FM, CLIP
     and the multilevel engine. *)
  let h = Suite.instance ~scale:8.0 "ibm01" in
  Format.printf "ibm01 twin: %a@." H.pp h;
  let problem = Problem.make ~tolerance:0.02 h in
  let report name result =
    let count stat = Option.get (Engine.Result.stat result stat) in
    Printf.printf "  %-12s cut %5d  (%.0f passes, %.0f moves)\n" name result.Engine.Result.cut
      (count "passes") (count "moves")
  in
  report "flat LIFO" (Fm.run_random_start ~config:Fm_config.strong_lifo (Rng.create 7) problem);
  report "flat CLIP" (Fm.run_random_start ~config:Fm_config.strong_clip (Rng.create 7) problem);
  report "ML CLIP" (Ml.run ~config:Ml.ml_clip (Rng.create 7) problem);

  (* 4. Multistart: 8 independent ML starts, keep the best, V-cycle it. *)
  let rng = Rng.create 9 in
  let best, records =
    Engine.multistart
      ~polish_best:(Ml_engines.vcycle_polish ~config:Ml.ml_clip rng problem)
      Ml_engines.mlclip rng problem ~starts:8
  in
  Printf.printf "multistart best-of-8 + V-cycle: cut %d\n" best.Engine.Result.cut;
  Printf.printf "per-start cuts: %s\n"
    (String.concat " "
       (List.map (fun r -> string_of_int r.Engine.start_cut) records))
