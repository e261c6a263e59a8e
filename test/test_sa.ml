module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Initial = Hypart_partition.Initial
module Sa = Hypart_sa.Sa_partitioner
module Result = Hypart_engine.Engine.Result
module Suite = Hypart_generator.Ibm_suite

let instance () = Suite.instance ~scale:32.0 "ibm01"

let test_sa_legal_and_consistent () =
  let p = Problem.make ~tolerance:0.10 (instance ()) in
  let r = Sa.run ~moves_per_vertex:40 (Rng.create 1) p in
  Alcotest.(check bool) "legal" true r.Result.legal;
  Alcotest.(check int) "cut consistent"
    (Bipartition.cut p.Problem.hypergraph r.Result.solution)
    r.Result.cut

let test_sa_improves_over_random () =
  let h = instance () in
  let p = Problem.make ~tolerance:0.10 h in
  let random_cut = Bipartition.cut h (Initial.random (Rng.create 2) p) in
  let r = Sa.run ~moves_per_vertex:40 (Rng.create 2) p in
  Alcotest.(check bool)
    (Printf.sprintf "sa %d < half of random %d" r.Result.cut random_cut)
    true
    (r.Result.cut * 2 < random_cut)

let test_sa_two_cliques () =
  let clique lo =
    let acc = ref [] in
    for i = 0 to 7 do
      for j = i + 1 to 7 do
        acc := [| lo + i; lo + j |] :: !acc
      done
    done;
    !acc
  in
  let h =
    H.create ~num_vertices:16
      ~edges:(Array.of_list (clique 0 @ clique 8 @ [ [| 0; 8 |] ]))
      ()
  in
  let p = Problem.make ~tolerance:0.10 h in
  let r = Sa.run ~moves_per_vertex:200 (Rng.create 3) p in
  Alcotest.(check int) "finds the optimum" 1 r.Result.cut

let test_sa_deterministic () =
  let p = Problem.make ~tolerance:0.10 (instance ()) in
  let a = Sa.run ~moves_per_vertex:10 (Rng.create 4) p in
  let b = Sa.run ~moves_per_vertex:10 (Rng.create 4) p in
  Alcotest.(check int) "same seed same cut" a.Result.cut b.Result.cut

let test_sa_respects_fixed () =
  let h = instance () in
  let n = H.num_vertices h in
  let fixed = Array.make n (-1) in
  fixed.(0) <- 0;
  fixed.(1) <- 1;
  let p = Problem.make ~fixed ~tolerance:0.10 h in
  let r = Sa.run ~moves_per_vertex:20 (Rng.create 5) p in
  Alcotest.(check int) "v0 stays" 0 (Bipartition.side r.Result.solution 0);
  Alcotest.(check int) "v1 stays" 1 (Bipartition.side r.Result.solution 1)

let test_sa_worse_than_fm_but_sane () =
  (* historically SA needs far more time to approach FM quality; with a
     modest budget it should land within a few x of flat FM, not at
     random-cut levels *)
  let p = Problem.make ~tolerance:0.10 (instance ()) in
  let sa = Sa.run ~moves_per_vertex:60 (Rng.create 6) p in
  let fm = Hypart_fm.Fm.run_random_start (Rng.create 6) p in
  Alcotest.(check bool)
    (Printf.sprintf "sa %d within 5x of fm %d" sa.Result.cut fm.Result.cut)
    true
    (sa.Result.cut <= 5 * max 1 fm.Result.cut)

let () =
  Alcotest.run "sa"
    [
      ( "sa partitioner",
        [
          Alcotest.test_case "legal and consistent" `Quick test_sa_legal_and_consistent;
          Alcotest.test_case "improves over random" `Quick test_sa_improves_over_random;
          Alcotest.test_case "two cliques" `Quick test_sa_two_cliques;
          Alcotest.test_case "deterministic" `Quick test_sa_deterministic;
          Alcotest.test_case "respects fixed" `Quick test_sa_respects_fixed;
          Alcotest.test_case "sane vs fm" `Quick test_sa_worse_than_fm_but_sane;
        ] );
    ]
