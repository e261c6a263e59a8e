module H = Hypart_hypergraph.Hypergraph
module K = Hypart_partition.Kway_objective

(* net 0 {0 1 2}, net 1 {1 3}, net 2 {2 3 4}, net 3 {0 4}; weight of
   net 3 is 2 *)
let sample () =
  H.create ~num_vertices:5
    ~edge_weights:[| 1; 1; 1; 2 |]
    ~edges:[| [| 0; 1; 2 |]; [| 1; 3 |]; [| 2; 3; 4 |]; [| 0; 4 |] |]
    ()

let test_lambda () =
  let h = sample () in
  let part_of = [| 0; 1; 2; 1; 0 |] in
  Alcotest.(check int) "net 0 touches 3 parts" 3 (K.lambda h part_of 0);
  Alcotest.(check int) "net 1 internal to part 1" 1 (K.lambda h part_of 1);
  Alcotest.(check int) "net 2 touches 3" 3 (K.lambda h part_of 2);
  Alcotest.(check int) "net 3 internal to part 0" 1 (K.lambda h part_of 3)

let test_metrics () =
  let h = sample () in
  let part_of = [| 0; 1; 2; 1; 0 |] in
  (* cut: nets 0 and 2 span -> 1 + 1 = 2 *)
  Alcotest.(check int) "cut" 2 (K.cut h part_of);
  (* k-1: net0 (3-1) + net1 0 + net2 (3-1) + net3 0 = 4 *)
  Alcotest.(check int) "k-1" 4 (K.k_minus_1 h part_of);
  (* soed: net0 3 + net2 3 = 6 *)
  Alcotest.(check int) "soed" 6 (K.soed h part_of)

let test_metrics_agree_for_bipartitions () =
  let h = sample () in
  let part_of = [| 0; 0; 1; 1; 0 |] in
  (* for k = 2, cut = k-1 metric, and soed = 2 cut *)
  Alcotest.(check int) "cut = k-1" (K.cut h part_of) (K.k_minus_1 h part_of);
  Alcotest.(check int) "soed = 2 cut" (2 * K.cut h part_of) (K.soed h part_of)

let test_weighted () =
  let h = sample () in
  (* cut net 3 (weight 2) only: split {0} vs rest... net3 {0,4}: parts 0/1;
     net0 {0,1,2}: 0 with 1 -> spans. Choose parts to cut only net 3:
     impossible (0 shares net0). Use all-same except 4. *)
  let part_of = [| 0; 0; 0; 0; 1 |] in
  (* nets spanning: net2 {2,3,4} and net3 {0,4} -> cut = 1 + 2 = 3 *)
  Alcotest.(check int) "weighted cut" 3 (K.cut h part_of);
  Alcotest.(check int) "weighted soed" 6 (K.soed h part_of)

let test_part_weights () =
  let h = sample () in
  let w = K.part_weights h [| 0; 1; 2; 1; 0 |] ~k:3 in
  Alcotest.(check (array int)) "weights" [| 2; 2; 1 |] w;
  Alcotest.check_raises "out of range" (Invalid_argument "x") (fun () ->
      try ignore (K.part_weights h [| 0; 1; 5; 1; 0 |] ~k:3)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* the figure is the larger deviation, over or under the target, as
   the two-sided window judges it: parts 10% over and 20% under read
   20%, not the heaviest part's 10% *)
let test_imbalance () =
  let imbalance weights =
    let n = Array.length weights in
    let h = H.create ~vertex_weights:weights ~num_vertices:n ~edges:[||] () in
    K.imbalance h (Array.init n Fun.id) ~k:n
  in
  Alcotest.(check (float 1e-9)) "exact" 0. (imbalance [| 100; 100; 100; 100 |]);
  Alcotest.(check (float 1e-9)) "over only" 0.20 (imbalance [| 120; 100; 90; 90 |]);
  Alcotest.(check (float 1e-9))
    "lightest 20% under" 0.20
    (imbalance [| 110; 110; 100; 80 |]);
  Alcotest.(check string)
    "printed" "20.00%"
    (Printf.sprintf "%.2f%%" (100. *. imbalance [| 110; 110; 100; 80 |]))

(* passes count every coarsest start (10) and every level's
   refinement, not the finest level's at most 4 *)
let test_ml_kway_stats () =
  let h = Hypart_generator.Ibm_suite.instance ~scale:32.0 "ibm01" in
  let r = Hypart_multilevel.Ml_kway.run ~k:4 (Hypart_rng.Rng.create 1) h in
  Alcotest.(check (list string))
    "names" [ "passes"; "moves" ]
    (List.map fst r.Hypart_fm.Kway_fm.stats);
  let passes = List.assoc "passes" r.Hypart_fm.Kway_fm.stats in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f passes >= 10 starts" passes)
    true (passes >= 10.)

let test_consistency_with_engines () =
  let h = Hypart_generator.Ibm_suite.instance ~scale:32.0 "ibm01" in
  let r = Hypart_multilevel.Recursive_bisection.run ~k:4 (Hypart_rng.Rng.create 1) h in
  Alcotest.(check int) "rb cut = objective cut"
    r.Hypart_fm.Kway_fm.cut
    (K.cut h r.Hypart_fm.Kway_fm.part_of);
  Alcotest.(check bool) "k-1 >= cut" true
    (K.k_minus_1 h r.Hypart_fm.Kway_fm.part_of
    >= K.cut h r.Hypart_fm.Kway_fm.part_of)

let test_ml_kway_multistart () =
  let h = Hypart_generator.Ibm_suite.instance ~scale:32.0 "ibm01" in
  let rng = Hypart_rng.Rng.create 2 in
  let starts =
    List.init 3 (fun _ -> Hypart_multilevel.Ml_kway.run ~k:3 rng h)
  in
  let best =
    List.fold_left
      (fun (b : Hypart_fm.Kway_fm.result) (r : Hypart_fm.Kway_fm.result) ->
        if Hypart_fm.Kway_fm.better r b then r else b)
      (List.hd starts) (List.tl starts)
  in
  List.iter
    (fun (r : Hypart_fm.Kway_fm.result) ->
      Alcotest.(check bool) "best <= each" true
        (best.Hypart_fm.Kway_fm.cut <= r.cut))
    starts

(* every k-way partitioner returns one record under one balance rule:
   its cut is the objective's cut of its assignment, its [legal] is the
   window rule recomputed from the part weights, and every part id lies
   in [0, k) *)
let test_kway_contract () =
  let h = Hypart_generator.Ibm_suite.instance ~scale:32.0 "ibm01" in
  let k = 4 and tolerance = 0.10 in
  let total = H.total_vertex_weight h in
  let target = float_of_int total /. float_of_int k in
  let lower = int_of_float (Float.floor ((1.0 -. tolerance) *. target)) in
  let upper = int_of_float (Float.ceil ((1.0 +. tolerance) *. target)) in
  Alcotest.(check (pair int int)) "window" (lower, upper)
    (K.window ~tolerance ~k total);
  let rng () = Hypart_rng.Rng.create 5 in
  List.iter
    (fun (name, (r : Hypart_fm.Kway_fm.result)) ->
      Alcotest.(check int) (name ^ " cut") (K.cut h r.part_of) r.cut;
      let weights = K.part_weights h r.part_of ~k in
      Alcotest.(check bool) (name ^ " legal")
        (Array.for_all (fun w -> w >= lower && w <= upper) weights)
        r.legal;
      Alcotest.(check bool) (name ^ " part ids in [0, k)") true
        (Array.for_all (fun p -> p >= 0 && p < k) r.part_of))
    [
      ("direct", Hypart_fm.Kway_fm.run_random_start ~tolerance ~k (rng ()) h);
      ("mlk", Hypart_multilevel.Ml_kway.run ~tolerance ~k (rng ()) h);
      ("rb", Hypart_multilevel.Recursive_bisection.run ~tolerance ~k (rng ()) h);
    ]

let () =
  Alcotest.run "kway_objective"
    [
      ( "metrics",
        [
          Alcotest.test_case "lambda" `Quick test_lambda;
          Alcotest.test_case "cut / k-1 / soed" `Quick test_metrics;
          Alcotest.test_case "bipartition identities" `Quick
            test_metrics_agree_for_bipartitions;
          Alcotest.test_case "weighted" `Quick test_weighted;
          Alcotest.test_case "part weights" `Quick test_part_weights;
          Alcotest.test_case "imbalance both sides" `Quick test_imbalance;
          Alcotest.test_case "ml kway stats" `Quick test_ml_kway_stats;
          Alcotest.test_case "engine consistency" `Quick
            test_consistency_with_engines;
          Alcotest.test_case "ml kway multistart" `Quick test_ml_kway_multistart;
          Alcotest.test_case "k-way contract" `Quick test_kway_contract;
        ] );
    ]
