module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Kway = Hypart_fm.Kway_fm
module Rb = Hypart_multilevel.Recursive_bisection
module Suite = Hypart_generator.Ibm_suite

let random_instance ?(nv = 60) ?(ne = 140) seed =
  let rng = Rng.create seed in
  let edges =
    Array.init ne (fun _ ->
        Rng.sample_distinct rng ~n:(2 + Rng.int rng 3) ~universe:nv)
  in
  H.create ~num_vertices:nv ~edges ()

(* four 6-cliques in a ring of single nets: 4-way optimum cut = 4 *)
let four_clusters () =
  let clique lo =
    let acc = ref [] in
    for i = 0 to 5 do
      for j = i + 1 to 5 do
        acc := [| lo + i; lo + j |] :: !acc
      done
    done;
    !acc
  in
  let bridges = [ [| 5; 6 |]; [| 11; 12 |]; [| 17; 18 |]; [| 23; 0 |] ] in
  H.create ~num_vertices:24
    ~edges:(Array.of_list (clique 0 @ clique 6 @ clique 12 @ clique 18 @ bridges))
    ()

let test_cut_of () =
  let h = four_clusters () in
  let perfect = Array.init 24 (fun v -> v / 6) in
  Alcotest.(check int) "perfect clustering cuts bridges only" 4
    (Hypart_partition.Kway_objective.cut h perfect);
  Alcotest.(check int) "all in one part" 0 (Hypart_partition.Kway_objective.cut h (Array.make 24 0))

let test_kway_finds_clusters () =
  let h = four_clusters () in
  let r = Kway.run_random_start ~k:4 (Rng.create 1) h in
  Alcotest.(check bool) "legal" true r.Kway.legal;
  Alcotest.(check int) "optimal 4-way cut" 4 r.Kway.cut

let test_kway_cut_consistent () =
  let h = random_instance 2 in
  let r = Kway.run_random_start ~k:3 (Rng.create 3) h in
  Alcotest.(check int) "reported = recomputed" (Hypart_partition.Kway_objective.cut h r.Kway.part_of)
    r.Kway.cut

let test_kway_balanced () =
  let h = random_instance ~nv:90 3 in
  let r = Kway.run_random_start ~k:3 ~tolerance:0.10 (Rng.create 4) h in
  Alcotest.(check bool) "legal" true r.Kway.legal;
  let w = Array.make 3 0 in
  Array.iteri (fun v p -> w.(p) <- w.(p) + H.vertex_weight h v) r.Kway.part_of;
  Array.iter
    (fun weight ->
      Alcotest.(check bool)
        (Printf.sprintf "part weight %d within 10%% of 30" weight)
        true
        (weight >= 27 && weight <= 33))
    w

let test_kway_improves_initial () =
  let h = random_instance 5 in
  let rng = Rng.create 6 in
  let initial = Array.init 60 (fun v -> v mod 3) in
  let before = Hypart_partition.Kway_objective.cut h initial in
  let r = Kway.run ~k:3 rng h initial in
  Alcotest.(check bool) "no worse" true (r.Kway.cut <= before);
  Alcotest.(check (array int)) "input untouched"
    (Array.init 60 (fun v -> v mod 3))
    initial

let test_kway_invalid () =
  let h = random_instance 7 in
  let bad name f =
    Alcotest.check_raises name (Invalid_argument "x") (fun () ->
        try ignore (f ()) with Invalid_argument _ -> raise (Invalid_argument "x"))
  in
  bad "k too small" (fun () -> Kway.run ~k:1 (Rng.create 1) h (Array.make 60 0));
  bad "length mismatch" (fun () -> Kway.run ~k:3 (Rng.create 1) h (Array.make 3 0));
  bad "part out of range" (fun () ->
      Kway.run ~k:3 (Rng.create 1) h (Array.make 60 5))

let test_kway_vs_recursive_bisection () =
  (* both must be sane; neither should be wildly worse than the other *)
  let h = Suite.instance ~scale:32.0 "ibm01" in
  let direct = Kway.run_random_start ~k:4 (Rng.create 8) h in
  let recursive = Rb.run ~k:4 (Rng.create 8) h in
  Alcotest.(check bool)
    (Printf.sprintf "direct %d, recursive %d comparable" direct.Kway.cut
       recursive.Kway.cut)
    true
    (direct.Kway.cut <= 4 * recursive.Kway.cut
    && recursive.Kway.cut <= 4 * max 1 direct.Kway.cut)

let test_kway_k2_matches_bipartition_semantics () =
  let h = random_instance 9 in
  let r = Kway.run_random_start ~k:2 (Rng.create 10) h in
  (* the 2-way k-way cut is the ordinary cut *)
  let side = r.Kway.part_of in
  let s = Hypart_partition.Bipartition.make h side in
  Alcotest.(check int) "k=2 cut is the bipartition cut"
    (Hypart_partition.Bipartition.cut h s)
    r.Kway.cut

let prop_kway_valid =
  QCheck.Test.make ~name:"kway results consistent and in range" ~count:30
    QCheck.(triple small_int (int_range 12 80) (int_range 2 5))
    (fun (seed, nv, k) ->
      let h = random_instance ~nv ~ne:(2 * nv) seed in
      let r = Kway.run_random_start ~k (Rng.create seed) h in
      Array.for_all (fun p -> p >= 0 && p < k) r.Kway.part_of
      && r.Kway.cut = Hypart_partition.Kway_objective.cut h r.Kway.part_of)

let () =
  Alcotest.run "kway_fm"
    [
      ( "kway",
        [
          Alcotest.test_case "cut_of" `Quick test_cut_of;
          Alcotest.test_case "finds clusters" `Quick test_kway_finds_clusters;
          Alcotest.test_case "cut consistent" `Quick test_kway_cut_consistent;
          Alcotest.test_case "balanced" `Quick test_kway_balanced;
          Alcotest.test_case "improves initial" `Quick test_kway_improves_initial;
          Alcotest.test_case "invalid inputs" `Quick test_kway_invalid;
          Alcotest.test_case "vs recursive bisection" `Quick
            test_kway_vs_recursive_bisection;
          Alcotest.test_case "k=2 semantics" `Quick
            test_kway_k2_matches_bipartition_semantics;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_kway_valid ]);
    ]
