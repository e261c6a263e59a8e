module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Balance = Hypart_partition.Balance
module Bipartition = Hypart_partition.Bipartition
module Objective = Hypart_partition.Objective
module Problem = Hypart_partition.Problem
module Initial = Hypart_partition.Initial

let sample () =
  H.create ~num_vertices:5
    ~edges:[| [| 0; 1; 2 |]; [| 1; 3 |]; [| 2; 3; 4 |]; [| 0; 4 |] |]
    ()

(* -- Balance -- *)

let test_balance_paper_convention () =
  (* 2% tolerance: parts between 49% and 51% of total *)
  let b = Balance.of_tolerance ~total:10000 ~tolerance:0.02 in
  Alcotest.(check int) "lower 49%" 4900 b.Balance.lower;
  Alcotest.(check int) "upper 51%" 5100 b.Balance.upper;
  let b10 = Balance.of_tolerance ~total:10000 ~tolerance:0.10 in
  Alcotest.(check int) "lower 45%" 4500 b10.Balance.lower;
  Alcotest.(check int) "upper 55%" 5500 b10.Balance.upper

let test_balance_legality () =
  let b = Balance.of_tolerance ~total:1000 ~tolerance:0.02 in
  Alcotest.(check bool) "bisection legal" true (Balance.is_legal b ~part0_weight:500);
  Alcotest.(check bool) "at bound legal" true (Balance.is_legal b ~part0_weight:510);
  Alcotest.(check bool) "beyond bound illegal" false (Balance.is_legal b ~part0_weight:511);
  Alcotest.(check bool) "symmetric" false (Balance.is_legal b ~part0_weight:489)

let test_balance_exact_bisection_odd_total () =
  (* 0% tolerance with an odd total must still admit the best split *)
  let b = Balance.of_tolerance ~total:7 ~tolerance:0.0 in
  Alcotest.(check bool) "3/4 split legal" true (Balance.is_legal b ~part0_weight:3);
  Alcotest.(check bool) "4/3 split legal" true (Balance.is_legal b ~part0_weight:4)

let test_balance_move_legality () =
  let b = Balance.of_tolerance ~total:1000 ~tolerance:0.02 in
  Alcotest.(check bool) "small move from 0 ok" true
    (Balance.is_legal b ~part0_weight:(505 - 10));
  Alcotest.(check bool) "overloading 1 illegal" false
    (Balance.is_legal b ~part0_weight:(505 - 20));
  Alcotest.(check bool) "move into 0 beyond upper illegal" false
    (Balance.is_legal b ~part0_weight:(505 + 10))

let test_balance_slack_and_violation () =
  let b = Balance.of_tolerance ~total:1000 ~tolerance:0.02 in
  Alcotest.(check int) "slack" 20 (Balance.slack b);
  Alcotest.(check int) "no violation" 0 (Balance.violation b ~part0_weight:500);
  Alcotest.(check int) "violation distance" 5 (Balance.violation b ~part0_weight:515)

let test_balance_fraction () =
  (* a 2-of-3 split at 2% tolerance: part 0 target 2/3 of the weight *)
  let b = Balance.of_fraction ~total:3000 ~fraction:(2. /. 3.) ~tolerance:0.02 in
  Alcotest.(check bool) "target legal" true (Balance.is_legal b ~part0_weight:2000);
  Alcotest.(check bool) "within band" true (Balance.is_legal b ~part0_weight:2025);
  Alcotest.(check bool) "beyond band" false (Balance.is_legal b ~part0_weight:2100);
  Alcotest.(check bool) "bisection illegal for 2/3 target" false
    (Balance.is_legal b ~part0_weight:1500)

let test_balance_fraction_clamped () =
  (* extreme fractions stay within [0, total] and keep the target legal *)
  let b = Balance.of_fraction ~total:10 ~fraction:0.05 ~tolerance:0.0 in
  Alcotest.(check bool) "rounded target legal" true
    (Balance.is_legal b ~part0_weight:1);
  Alcotest.(check bool) "lower bound clamped" true (b.Balance.lower >= 0)

let test_balance_invalid () =
  Alcotest.check_raises "bad tolerance" (Invalid_argument "x") (fun () ->
      try ignore (Balance.of_tolerance ~total:10 ~tolerance:1.5)
      with Invalid_argument _ -> raise (Invalid_argument "x"));
  Alcotest.check_raises "bad total" (Invalid_argument "x") (fun () ->
      try ignore (Balance.of_tolerance ~total:0 ~tolerance:0.1)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* NaN compares false with everything, so a range check written as
   [t < 0. || t >= 1.] would let it through with [lower = 0] *)
let test_balance_rejects_non_range () =
  List.iter
    (fun tolerance ->
      let name = Printf.sprintf "tolerance %g" tolerance in
      Alcotest.(check bool) (name ^ " invalid") false
        (Balance.valid_tolerance tolerance);
      Alcotest.check_raises (name ^ " of_tolerance") (Invalid_argument "x")
        (fun () ->
          try ignore (Balance.of_tolerance ~total:10 ~tolerance)
          with Invalid_argument _ -> raise (Invalid_argument "x"));
      Alcotest.check_raises (name ^ " of_fraction") (Invalid_argument "x")
        (fun () ->
          try ignore (Balance.of_fraction ~total:10 ~fraction:0.5 ~tolerance)
          with Invalid_argument _ -> raise (Invalid_argument "x")))
    [ Float.nan; Float.infinity; -0.1; 1.0 ];
  List.iter
    (fun t ->
      Alcotest.(check bool) (Printf.sprintf "tolerance %g valid" t) true
        (Balance.valid_tolerance t))
    [ 0.0; 0.02; 0.999 ]

(* -- Bipartition -- *)

let test_bipartition_weights () =
  let h = sample () in
  let s = Bipartition.make h [| 0; 0; 1; 1; 0 |] in
  Alcotest.(check int) "part0 weight" 3 (Bipartition.part_weight s 0);
  Alcotest.(check int) "part1 weight" 2 (Bipartition.part_weight s 1);
  Alcotest.(check int) "side" 1 (Bipartition.side s 2)

let test_bipartition_move () =
  let h = sample () in
  let s = Bipartition.make h [| 0; 0; 1; 1; 0 |] in
  Bipartition.move s h 0;
  Alcotest.(check int) "side flipped" 1 (Bipartition.side s 0);
  Alcotest.(check int) "part0 weight" 2 (Bipartition.part_weight s 0);
  Alcotest.(check int) "part1 weight" 3 (Bipartition.part_weight s 1);
  Bipartition.move s h 0;
  Alcotest.(check int) "flip back" 0 (Bipartition.side s 0)

let test_bipartition_cut () =
  let h = sample () in
  (* sides 0,0,1,1,0: net0 {0,1,2} cut; net1 {1,3} cut; net2 {2,3,4} cut;
     net3 {0,4} uncut -> cut = 3 *)
  let s = Bipartition.make h [| 0; 0; 1; 1; 0 |] in
  Alcotest.(check int) "cut" 3 (Bipartition.cut h s);
  let all0 = Bipartition.make h [| 0; 0; 0; 0; 0 |] in
  Alcotest.(check int) "no cut" 0 (Bipartition.cut h all0)

let test_bipartition_weighted_cut () =
  let h =
    H.create ~num_vertices:4 ~edge_weights:[| 5; 3 |]
      ~edges:[| [| 0; 1 |]; [| 2; 3 |] |] ()
  in
  let s = Bipartition.make h [| 0; 1; 0; 0 |] in
  Alcotest.(check int) "weighted cut" 5 (Bipartition.cut h s)

let test_bipartition_invalid () =
  let h = sample () in
  Alcotest.check_raises "bad length" (Invalid_argument "x") (fun () ->
      try ignore (Bipartition.make h [| 0; 1 |])
      with Invalid_argument _ -> raise (Invalid_argument "x"));
  Alcotest.check_raises "bad side" (Invalid_argument "x") (fun () ->
      try ignore (Bipartition.make h [| 0; 1; 2; 0; 1 |])
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_similarity () =
  let h = sample () in
  let a = Bipartition.make h [| 0; 0; 1; 1; 0 |] in
  let b = Bipartition.make h [| 0; 0; 1; 1; 0 |] in
  Alcotest.(check (float 1e-9)) "identical" 1.0 (Bipartition.similarity a b);
  let flipped = Bipartition.make h [| 1; 1; 0; 0; 1 |] in
  Alcotest.(check (float 1e-9)) "global flip is identical" 1.0
    (Bipartition.similarity a flipped);
  let off_by_one = Bipartition.make h [| 0; 0; 1; 1; 1 |] in
  Alcotest.(check (float 1e-9)) "four of five agree" 0.8
    (Bipartition.similarity a off_by_one)

let test_pins_on_side () =
  let h = sample () in
  let s = Bipartition.make h [| 0; 0; 1; 1; 0 |] in
  Alcotest.(check (pair int int)) "net0" (2, 1) (Bipartition.pins_on_side h s 0);
  Alcotest.(check (pair int int)) "net3" (2, 0) (Bipartition.pins_on_side h s 3)

(* -- Objective -- *)

let test_objectives () =
  let h = sample () in
  let s = Bipartition.make h [| 0; 0; 1; 1; 0 |] in
  Alcotest.(check (float 1e-9)) "cut as float" 3.0 (Objective.evaluate Cut h s);
  (* ratio cut with w0=3 w1=2: 3 * 2.5^2 / 6 = 3.125 *)
  Alcotest.(check (float 1e-9)) "ratio cut" 3.125 (Objective.evaluate Ratio_cut h s);
  (* scaled cost: 3/5 * (1/3 + 1/2) = 0.5 *)
  Alcotest.(check (float 1e-9)) "scaled cost" 0.5 (Objective.evaluate Scaled_cost h s);
  (* absorption: net0 (2-1)/2 + 0; net1 0+0; net2 (2-1)/2; net3 (2-1)/1 = 2.0 *)
  Alcotest.(check (float 1e-9)) "absorption" 2.0 (Objective.evaluate Absorption h s)

let test_absorption_full () =
  let h = sample () in
  let all0 = Bipartition.make h [| 0; 0; 0; 0; 0 |] in
  Alcotest.(check (float 1e-9)) "fully absorbed = #nets" 4.0
    (Objective.evaluate Absorption h all0)

let test_objective_directions () =
  Alcotest.(check bool) "cut minimized" true (Objective.direction Cut = `Minimize);
  Alcotest.(check bool) "absorption maximized" true
    (Objective.direction Absorption = `Maximize)

(* -- Problem / Initial -- *)

let test_problem_fixed () =
  let h = sample () in
  let p = Problem.make ~fixed:[| 0; -1; -1; 1; -1 |] ~tolerance:0.1 h in
  Alcotest.(check (list bool)) "v0 and v3 fixed" [ false; true; true; false; true ]
    (List.init 5 (Problem.is_free p))

let test_problem_invalid_fixed () =
  let h = sample () in
  Alcotest.check_raises "bad fixed" (Invalid_argument "x") (fun () ->
      try ignore (Problem.make ~fixed:[| 2; -1; -1; -1; -1 |] ~tolerance:0.1 h)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let unit_instance ~n ~seed =
  let rng = Rng.create seed in
  let edges =
    Array.init (2 * n) (fun _ ->
        Rng.sample_distinct rng ~n:(2 + Rng.int rng 3) ~universe:n)
  in
  H.create ~num_vertices:n ~edges ()

let test_initial_random_legal () =
  let h = unit_instance ~n:200 ~seed:5 in
  let p = Problem.make ~tolerance:0.02 h in
  for seed = 0 to 9 do
    let s = Initial.random (Rng.create seed) p in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d legal" seed)
      true
      (Bipartition.is_legal s p.Problem.balance)
  done

let test_initial_random_varies () =
  let h = unit_instance ~n:200 ~seed:5 in
  let p = Problem.make ~tolerance:0.10 h in
  let a = Initial.random (Rng.create 1) p in
  let b = Initial.random (Rng.create 2) p in
  Alcotest.(check bool) "different seeds, different solutions" false
    (Bipartition.equal a b)

let test_initial_respects_fixed () =
  let h = unit_instance ~n:100 ~seed:6 in
  let fixed = Array.make 100 (-1) in
  fixed.(0) <- 0;
  fixed.(1) <- 1;
  fixed.(2) <- 1;
  let p = Problem.make ~fixed ~tolerance:0.10 h in
  for seed = 0 to 4 do
    let s = Initial.random (Rng.create seed) p in
    Alcotest.(check int) "v0 on side 0" 0 (Bipartition.side s 0);
    Alcotest.(check int) "v1 on side 1" 1 (Bipartition.side s 1);
    Alcotest.(check int) "v2 on side 1" 1 (Bipartition.side s 2)
  done

let test_initial_with_macro () =
  (* a macro of half the small-cell area must still yield a legal start *)
  let weights = Array.make 101 1 in
  weights.(100) <- 40;
  let rng = Rng.create 7 in
  let edges =
    Array.init 150 (fun _ -> Rng.sample_distinct rng ~n:3 ~universe:101)
  in
  let h = H.create ~num_vertices:101 ~vertex_weights:weights ~edges () in
  let p = Problem.make ~tolerance:0.10 h in
  for seed = 0 to 4 do
    let s = Initial.area_levelled (Rng.create seed) p in
    Alcotest.(check bool) "area-levelled legal" true
      (Bipartition.is_legal s p.Problem.balance)
  done

let test_initial_cluster_grown () =
  (* on a structured instance, BFS growth must produce a far lower cut
     than a random split, and stay legal *)
  let h = Hypart_generator.Ibm_suite.instance ~scale:16.0 "ibm01" in
  let p = Problem.make ~tolerance:0.10 h in
  let bfs = Initial.cluster_grown (Rng.create 1) p in
  let rnd = Initial.random (Rng.create 1) p in
  Alcotest.(check bool) "legal" true (Bipartition.is_legal bfs p.Problem.balance);
  let cb = Bipartition.cut h bfs and cr = Bipartition.cut h rnd in
  Alcotest.(check bool)
    (Printf.sprintf "grown cut %d at least 25%% below random cut %d" cb cr)
    true
    (float_of_int cb < 0.75 *. float_of_int cr)

let test_initial_cluster_grown_fixed () =
  let h = unit_instance ~n:100 ~seed:60 in
  let fixed = Array.make 100 (-1) in
  fixed.(3) <- 1;
  fixed.(4) <- 0;
  let p = Problem.make ~fixed ~tolerance:0.10 h in
  let s = Initial.cluster_grown (Rng.create 61) p in
  Alcotest.(check int) "v3 on 1" 1 (Bipartition.side s 3);
  Alcotest.(check int) "v4 on 0" 0 (Bipartition.side s 4)

let prop_initial_weights_consistent =
  QCheck.Test.make ~name:"initial solutions report consistent part weights"
    ~count:50
    QCheck.(pair small_int (int_range 10 300))
    (fun (seed, n) ->
      let h = unit_instance ~n ~seed in
      let p = Problem.make ~tolerance:0.10 h in
      let s = Initial.random (Rng.create seed) p in
      let w0 = ref 0 in
      for v = 0 to n - 1 do
        if Bipartition.side s v = 0 then w0 := !w0 + H.vertex_weight h v
      done;
      !w0 = Bipartition.part_weight s 0
      && Bipartition.part_weight s 0 + Bipartition.part_weight s 1
         = H.total_vertex_weight h)

(* The flat cut (a pin slice scan that stops at the first pin on the
   other side) and the flat part weights against a recount through
   [pins_on_side] and [vertex_weight], on random weighted hypergraphs
   (single-pin nets included) and random assignments. *)
let prop_flat_cut =
  QCheck.Test.make ~name:"flat cut and weights equal a recount" ~count:200
    ~long_factor:100 QCheck.small_nat (fun seed ->
      let rng = Rng.create seed in
      let nv = 1 + Rng.int rng 40 and ne = Rng.int rng 60 in
      let edges =
        Array.init ne (fun _ -> Array.init (1 + Rng.int rng 8) (fun _ -> Rng.int rng nv))
      in
      let h =
        H.create ~num_vertices:nv
          ~vertex_weights:(Array.init nv (fun _ -> 1 + Rng.int rng 9))
          ~edge_weights:(Array.init ne (fun _ -> 1 + Rng.int rng 9))
          ~edges ()
      in
      let s = Bipartition.make h (Array.init nv (fun _ -> Rng.int rng 2)) in
      let cut = ref 0 in
      for e = 0 to ne - 1 do
        let c0, c1 = Bipartition.pins_on_side h s e in
        if c0 > 0 && c1 > 0 then cut := !cut + H.edge_weight h e
      done;
      let w0 = ref 0 in
      for v = 0 to nv - 1 do
        if Bipartition.side s v = 0 then w0 := !w0 + H.vertex_weight h v
      done;
      Bipartition.cut h s = !cut
      && Bipartition.part_weight s 0 = !w0
      && Bipartition.part_weight s 1 = H.total_vertex_weight h - !w0)

let () =
  Alcotest.run "partition"
    [
      ( "balance",
        [
          Alcotest.test_case "paper convention" `Quick test_balance_paper_convention;
          Alcotest.test_case "legality" `Quick test_balance_legality;
          Alcotest.test_case "odd total bisection" `Quick
            test_balance_exact_bisection_odd_total;
          Alcotest.test_case "move legality" `Quick test_balance_move_legality;
          Alcotest.test_case "slack and violation" `Quick
            test_balance_slack_and_violation;
          Alcotest.test_case "fraction" `Quick test_balance_fraction;
          Alcotest.test_case "fraction clamped" `Quick test_balance_fraction_clamped;
          Alcotest.test_case "invalid" `Quick test_balance_invalid;
          Alcotest.test_case "NaN and out-of-range tolerance" `Quick
            test_balance_rejects_non_range;
        ] );
      ( "bipartition",
        [
          Alcotest.test_case "weights" `Quick test_bipartition_weights;
          Alcotest.test_case "move" `Quick test_bipartition_move;
          Alcotest.test_case "cut" `Quick test_bipartition_cut;
          Alcotest.test_case "weighted cut" `Quick test_bipartition_weighted_cut;
          Alcotest.test_case "invalid" `Quick test_bipartition_invalid;
          Alcotest.test_case "pins on side" `Quick test_pins_on_side;
          Alcotest.test_case "similarity" `Quick test_similarity;
        ] );
      ( "objective",
        [
          Alcotest.test_case "values" `Quick test_objectives;
          Alcotest.test_case "absorption full" `Quick test_absorption_full;
          Alcotest.test_case "directions" `Quick test_objective_directions;
        ] );
      ( "problem",
        [
          Alcotest.test_case "fixed vertices" `Quick test_problem_fixed;
          Alcotest.test_case "invalid fixed" `Quick test_problem_invalid_fixed;
        ] );
      ( "initial",
        [
          Alcotest.test_case "random legal" `Quick test_initial_random_legal;
          Alcotest.test_case "random varies" `Quick test_initial_random_varies;
          Alcotest.test_case "respects fixed" `Quick test_initial_respects_fixed;
          Alcotest.test_case "macro placement" `Quick test_initial_with_macro;
          Alcotest.test_case "cluster grown" `Quick test_initial_cluster_grown;
          Alcotest.test_case "cluster-grown respects fixed" `Quick test_initial_cluster_grown_fixed;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_initial_weights_consistent;
          QCheck_alcotest.to_alcotest prop_flat_cut;
        ] );
    ]
