(* Smoke test across the libraries: a small end-to-end pipeline through
   each engine family, placement, statistics and the table harness. *)

module Rng = Hypart_rng.Rng
module Hypergraph = Hypart_hypergraph.Hypergraph
module Stats_summary = Hypart_hypergraph.Stats_summary
module Ibm_suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Fm_config = Hypart_fm.Fm_config
module Fm = Hypart_fm.Fm
module Engine = Hypart_engine.Engine
module Kway_fm = Hypart_fm.Kway_fm
module Ml_partitioner = Hypart_multilevel.Ml_partitioner
module Recursive_bisection = Hypart_multilevel.Recursive_bisection
module Topdown = Hypart_placement.Topdown
module Descriptive = Hypart_stats.Descriptive
module Campaigns = Hypart_harness.Campaigns

let test_end_to_end () =
  let h = Ibm_suite.instance ~scale:64.0 "ibm01" in
  let problem = Problem.make ~tolerance:0.10 h in
  let rng = Rng.create 1 in
  (* flat, ml, kway, placement *)
  let flat = Fm.run_random_start ~config:Fm_config.strong_lifo rng problem in
  Alcotest.(check bool) "flat legal" true flat.Engine.Result.legal;
  let ml = Ml_partitioner.run rng problem in
  Alcotest.(check int) "ml cut consistent" (Bipartition.cut h ml.Engine.Result.solution)
    ml.Engine.Result.cut;
  let kway = Recursive_bisection.run ~k:3 rng h in
  Alcotest.(check int) "kway consistent"
    (Hypart_partition.Kway_objective.cut h kway.Kway_fm.part_of)
    kway.Kway_fm.cut;
  let direct = Kway_fm.run_random_start ~k:3 rng h in
  Alcotest.(check bool) "direct kway sane" true (direct.Kway_fm.cut >= 0);
  let pl = Topdown.place rng h in
  Alcotest.(check bool) "placement hpwl positive" true (Topdown.hpwl h pl > 0.0);
  let stats = Hypergraph.stats h in
  Alcotest.(check bool) "stats reachable" true
    (stats.Stats_summary.num_vertices > 0);
  let summary = Descriptive.summarize [| 1.0; 2.0 |] in
  Alcotest.(check int) "stats lib reachable" 2 summary.Descriptive.n

let test_table_pipeline () =
  let campaign =
    Campaigns.make ~name:"smoke" ~seed:1
      [ Campaigns.table1 ~scale:64.0 ~runs:2 ~instances:[ "ibm01" ] ]
  in
  let _, sections = Campaigns.execute ~store:None campaign in
  Alcotest.(check bool) "table renders" true (String.length (Campaigns.render sections) > 0)

let () =
  Alcotest.run "smoke"
    [
      ( "smoke",
        [
          Alcotest.test_case "end to end" `Quick test_end_to_end;
          Alcotest.test_case "table pipeline" `Quick test_table_pipeline;
        ] );
    ]
