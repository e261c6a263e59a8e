module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Initial = Hypart_partition.Initial
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config
module Matching = Hypart_multilevel.Matching
module Coarsen = Hypart_multilevel.Coarsen
module Ml = Hypart_multilevel.Ml_partitioner
module Ml_engines = Hypart_multilevel.Ml_engines
module Engine = Hypart_engine.Engine
module Suite = Hypart_generator.Ibm_suite

let instance () = Suite.instance ~scale:32.0 "ibm01"

let random_instance ?(nv = 80) ?(ne = 160) seed =
  let rng = Rng.create seed in
  let edges =
    Array.init ne (fun _ ->
        Rng.sample_distinct rng ~n:(2 + Rng.int rng 3) ~universe:nv)
  in
  H.create ~num_vertices:nv ~edges ()

(* -- Matching -- *)

let test_matching_is_clustering () =
  let h = random_instance 1 in
  let fixed = Array.make 80 (-1) in
  let cluster_of, k =
    Matching.compute ~scheme:Matching.Edge_coarsening ~rng:(Rng.create 2)
      ~max_cluster_weight:10 ~fixed h
  in
  Alcotest.(check bool) "clusters shrink" true (k < 80);
  Alcotest.(check bool) "clusters at least half" true (k * 2 >= 80);
  (* surjective onto 0..k-1, each cluster of size 1 or 2 *)
  let size = Array.make k 0 in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "in range" true (c >= 0 && c < k);
      size.(c) <- size.(c) + 1)
    cluster_of;
  Array.iter
    (fun s -> Alcotest.(check bool) "pair or singleton" true (s = 1 || s = 2))
    size

(* The three neighbour-matching schemes share one loop: the cap, fixed
   side and part checks hold for each, on both its unclustered and (for
   FirstChoice) clustered candidates. *)
let neighbour_schemes =
  [ Matching.Edge_coarsening; Matching.Heavy_edge; Matching.First_choice ]

let test_matching_respects_weight_cap () =
  let weights = Array.init 20 (fun i -> if i < 10 then 8 else 1) in
  let edges = Array.init 30 (fun i -> [| i mod 20; (i + 1) mod 20 |]) in
  let h = H.create ~num_vertices:20 ~vertex_weights:weights ~edges () in
  let fixed = Array.make 20 (-1) in
  List.iter
    (fun scheme ->
      let cluster_of, k =
        Matching.compute ~scheme ~rng:(Rng.create 3) ~max_cluster_weight:9
          ~fixed h
      in
      (* two weight-8 vertices may never merge (8+8 > 9) *)
      let cluster_weight = Array.make k 0 in
      Array.iteri
        (fun v c -> cluster_weight.(c) <- cluster_weight.(c) + weights.(v))
        cluster_of;
      Array.iter
        (fun w -> Alcotest.(check bool) "cap respected" true (w <= 9))
        cluster_weight)
    neighbour_schemes

let test_matching_respects_fixed () =
  let h = random_instance 4 in
  let fixed = Array.init 80 (fun v -> if v < 20 then v mod 2 else -1) in
  List.iter
    (fun scheme ->
      let cluster_of, _ =
        Matching.compute ~scheme ~rng:(Rng.create 5) ~max_cluster_weight:100
          ~fixed h
      in
      (* no cluster may contain vertices fixed to different sides *)
      let side_of_cluster = Hashtbl.create 16 in
      Array.iteri
        (fun v c ->
          if fixed.(v) >= 0 then
            match Hashtbl.find_opt side_of_cluster c with
            | None -> Hashtbl.add side_of_cluster c fixed.(v)
            | Some s ->
              Alcotest.(check int) "consistent fixed sides in cluster" s
                fixed.(v))
        cluster_of)
    neighbour_schemes

let test_matching_respects_partition_restriction () =
  let h = random_instance 6 in
  let fixed = Array.make 80 (-1) in
  let part = Array.init 80 (fun v -> v mod 2) in
  List.iter
    (fun scheme ->
      let cluster_of, _ =
        Matching.compute ~scheme ~rng:(Rng.create 7) ~max_cluster_weight:100
          ~fixed ~restrict_to_parts:part h
      in
      let part_of_cluster = Hashtbl.create 16 in
      Array.iteri
        (fun v c ->
          match Hashtbl.find_opt part_of_cluster c with
          | None -> Hashtbl.add part_of_cluster c part.(v)
          | Some p ->
            Alcotest.(check int) "cluster stays in one part" p part.(v))
        cluster_of)
    neighbour_schemes

let test_first_choice_grows_clusters () =
  let h = instance () in
  let n = H.num_vertices h in
  let fixed = Array.make n (-1) in
  let cluster_of, k =
    Matching.compute ~scheme:Matching.First_choice ~rng:(Rng.create 40)
      ~max_cluster_weight:(H.total_vertex_weight h / 20) ~fixed h
  in
  Alcotest.(check bool) "coarsens more aggressively than pairing" true
    (k * 2 < n);
  (* weight cap respected for every multi-vertex cluster (a singleton
     macro may exceed it on its own) *)
  let weight = Array.make k 0 and members = Array.make k 0 in
  Array.iteri
    (fun v c ->
      weight.(c) <- weight.(c) + H.vertex_weight h v;
      members.(c) <- members.(c) + 1)
    cluster_of;
  Array.iteri
    (fun c w ->
      if members.(c) > 1 then
        Alcotest.(check bool) "cap respected" true
          (w <= H.total_vertex_weight h / 20))
    weight

let test_first_choice_respects_fixed () =
  let h = instance () in
  let n = H.num_vertices h in
  let fixed = Array.init n (fun v -> if v < 40 then v mod 2 else -1) in
  let cluster_of, _ =
    Matching.compute ~scheme:Matching.First_choice ~rng:(Rng.create 41)
      ~max_cluster_weight:(H.total_vertex_weight h / 20) ~fixed h
  in
  let side_of_cluster = Hashtbl.create 16 in
  Array.iteri
    (fun v c ->
      if fixed.(v) >= 0 then
        match Hashtbl.find_opt side_of_cluster c with
        | None -> Hashtbl.add side_of_cluster c fixed.(v)
        | Some s -> Alcotest.(check int) "fixed consistent" s fixed.(v))
    cluster_of

let test_hyperedge_coarsening_valid () =
  let h = instance () in
  let n = H.num_vertices h in
  let fixed = Array.make n (-1) in
  let cluster_of, k =
    Matching.compute ~scheme:Matching.Hyperedge_coarsening ~rng:(Rng.create 42)
      ~max_cluster_weight:(H.total_vertex_weight h / 20) ~fixed h
  in
  Alcotest.(check bool) "coarsens" true (k < n);
  Array.iter
    (fun c -> Alcotest.(check bool) "cluster id valid" true (c >= 0 && c < k))
    cluster_of

let test_all_schemes_run_ml () =
  let h = instance () in
  let p = Problem.make ~tolerance:0.02 h in
  List.iter
    (fun scheme ->
      let config = { Ml.default with Ml.scheme } in
      let r = Ml.run ~config (Rng.create 43) p in
      Alcotest.(check bool) "legal" true r.Engine.Result.legal;
      Alcotest.(check int) "consistent" (Bipartition.cut h r.Engine.Result.solution) r.Engine.Result.cut)
    [ Matching.Edge_coarsening; Matching.Heavy_edge; Matching.First_choice;
      Matching.Hyperedge_coarsening ]

let test_boundary_refinement () =
  let h = instance () in
  let p = Problem.make ~tolerance:0.02 h in
  let config = { Ml.default with Ml.boundary_refinement = true } in
  let r = Ml.run ~config (Rng.create 44) p in
  Alcotest.(check bool) "legal" true r.Engine.Result.legal;
  Alcotest.(check int) "consistent" (Bipartition.cut h r.Engine.Result.solution) r.Engine.Result.cut;
  (* quality stays in the same ballpark as full refinement *)
  let full = Ml.run (Rng.create 44) p in
  Alcotest.(check bool)
    (Printf.sprintf "boundary %d vs full %d comparable" r.Engine.Result.cut full.Engine.Result.cut)
    true
    (r.Engine.Result.cut <= 3 * max 1 full.Engine.Result.cut)

(* -- Coarsening -- *)

let test_coarsen_reduces () =
  let h = instance () in
  let p = Problem.make ~tolerance:0.10 h in
  let hier =
    Coarsen.build ~scheme:Matching.Edge_coarsening ~rng:(Rng.create 8)
      ~coarsest_size:50 ~max_cluster_weight:(H.total_vertex_weight h / 40) p
  in
  let coarse_h, _ = Coarsen.coarsest hier in
  Alcotest.(check bool) "hierarchy built" true (List.length hier.Coarsen.levels >= 1);
  Alcotest.(check bool) "reached small size" true (H.num_vertices coarse_h < 120);
  Alcotest.(check int) "weight conserved" (H.total_vertex_weight h)
    (H.total_vertex_weight coarse_h)

let test_coarsen_monotone_levels () =
  let h = instance () in
  let p = Problem.make ~tolerance:0.10 h in
  let hier =
    Coarsen.build ~scheme:Matching.Edge_coarsening ~rng:(Rng.create 9)
      ~coarsest_size:50 ~max_cluster_weight:(H.total_vertex_weight h / 40) p
  in
  let sizes =
    List.map (fun (l : Coarsen.level) -> H.num_vertices l.Coarsen.coarse)
      hier.Coarsen.levels
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly decreasing level sizes" true
    (decreasing (H.num_vertices h :: sizes))

let test_project_preserves_cut () =
  (* projecting a coarse solution yields exactly the same cut value on
     the fine level (contraction only merged same-cluster pins) *)
  let h = instance () in
  let p = Problem.make ~tolerance:0.10 h in
  let hier =
    Coarsen.build ~scheme:Matching.Edge_coarsening ~rng:(Rng.create 10)
      ~coarsest_size:60 ~max_cluster_weight:(H.total_vertex_weight h / 40) p
  in
  match hier.Coarsen.levels with
  | [] -> Alcotest.fail "expected at least one level"
  | level :: _ ->
    let coarse_problem = Problem.make ~tolerance:0.10 level.Coarsen.coarse in
    let coarse_sol = Initial.random (Rng.create 11) coarse_problem in
    let fine_sol = Coarsen.project level coarse_sol ~fine:h in
    Alcotest.(check int) "cut preserved under projection"
      (Bipartition.cut level.Coarsen.coarse coarse_sol)
      (Bipartition.cut h fine_sol);
    Alcotest.(check int) "part weight preserved"
      (Bipartition.part_weight coarse_sol 0)
      (Bipartition.part_weight fine_sol 0)

(* -- ML partitioner -- *)

let test_ml_legal_and_consistent () =
  let h = instance () in
  let p = Problem.make ~tolerance:0.02 h in
  let r = Ml.run (Rng.create 12) p in
  Alcotest.(check bool) "legal" true r.Engine.Result.legal;
  Alcotest.(check int) "cut consistent" (Bipartition.cut h r.Engine.Result.solution) r.Engine.Result.cut

let test_ml_beats_flat () =
  (* multilevel must clearly beat a single flat FM start on a structured
     instance (averaged over a few seeds to avoid flakiness) *)
  let h = Suite.instance ~scale:16.0 "ibm01" in
  let p = Problem.make ~tolerance:0.10 h in
  let total_ml = ref 0 and total_flat = ref 0 in
  for seed = 0 to 2 do
    let ml = Ml.run (Rng.create (100 + seed)) p in
    let flat = Fm.run_random_start (Rng.create (100 + seed)) p in
    total_ml := !total_ml + ml.Engine.Result.cut;
    total_flat := !total_flat + flat.Engine.Result.cut
  done;
  Alcotest.(check bool)
    (Printf.sprintf "ml (%d) <= flat (%d)" !total_ml !total_flat)
    true (!total_ml <= !total_flat)

let test_ml_respects_fixed () =
  let h = instance () in
  let n = H.num_vertices h in
  let fixed = Array.make n (-1) in
  fixed.(0) <- 0;
  fixed.(1) <- 1;
  fixed.(2) <- 0;
  let p = Problem.make ~fixed ~tolerance:0.10 h in
  let r = Ml.run (Rng.create 13) p in
  Alcotest.(check int) "v0 fixed to 0" 0 (Bipartition.side r.Engine.Result.solution 0);
  Alcotest.(check int) "v1 fixed to 1" 1 (Bipartition.side r.Engine.Result.solution 1);
  Alcotest.(check int) "v2 fixed to 0" 0 (Bipartition.side r.Engine.Result.solution 2)

let test_ml_clip_variant () =
  let h = instance () in
  let p = Problem.make ~tolerance:0.02 h in
  let r = Ml.run ~config:Ml.ml_clip (Rng.create 14) p in
  Alcotest.(check bool) "legal" true r.Engine.Result.legal;
  Alcotest.(check int) "cut consistent" (Bipartition.cut h r.Engine.Result.solution) r.Engine.Result.cut

let test_vcycle_never_worse () =
  let h = instance () in
  let p = Problem.make ~tolerance:0.02 h in
  let r = Ml.run (Rng.create 15) p in
  let r' = Ml.vcycle (Rng.create 16) p r.Engine.Result.solution in
  Alcotest.(check bool) "vcycle no worse" true (r'.Engine.Result.cut <= r.Engine.Result.cut);
  Alcotest.(check bool) "vcycle legal" true r'.Engine.Result.legal;
  Alcotest.(check int) "cut consistent" (Bipartition.cut h r'.Engine.Result.solution) r'.Engine.Result.cut

let test_ml_multistart () =
  let h = instance () in
  let p = Problem.make ~tolerance:0.02 h in
  let best, records = Engine.multistart Ml_engines.ml (Rng.create 17) p ~starts:4 in
  Alcotest.(check int) "4 records" 4 (List.length records);
  List.iter
    (fun r ->
      Alcotest.(check bool) "best <= start" true
        (best.Engine.Result.cut <= r.Engine.start_cut))
    records

let test_ml_multistart_with_vcycle () =
  let h = instance () in
  let p = Problem.make ~tolerance:0.02 h in
  let plain, _ = Engine.multistart Ml_engines.ml (Rng.create 18) p ~starts:2 in
  let rng = Rng.create 18 in
  let polish = Ml_engines.vcycle_polish ~config:Ml.default rng p in
  let cycled, _ =
    Engine.multistart
      ~polish_best:(fun r -> polish (polish r))
      Ml_engines.ml rng p ~starts:2
  in
  Alcotest.(check bool) "vcycled best no worse" true
    (cycled.Engine.Result.cut <= plain.Engine.Result.cut)

let test_ml_deterministic () =
  let h = instance () in
  let p = Problem.make ~tolerance:0.02 h in
  let a = Ml.run (Rng.create 19) p in
  let b = Ml.run (Rng.create 19) p in
  Alcotest.(check int) "same seed same cut" a.Engine.Result.cut b.Engine.Result.cut

(* A multilevel run's stats count every FM run it makes: each level's
   refinement runs at least one pass, so an [mlclip] run makes at least
   as many passes as its hierarchy has levels. *)
let test_ml_stats_count_every_level () =
  let module Control = Hypart_telemetry.Control in
  let module Metrics = Hypart_telemetry.Metrics in
  let p = Problem.make ~tolerance:0.02 (Suite.instance ~scale:8.0 "ibm01") in
  Control.with_enabled (fun () ->
      Metrics.reset ();
      let r = Engine.run Ml_engines.mlclip (Rng.create 20) p None in
      let levels = Metrics.counter_value "ml.coarsen_levels" in
      Metrics.reset ();
      let passes = int_of_float (List.assoc "passes" r.Engine.Result.stats) in
      Alcotest.(check bool) "several levels" true (levels > 1);
      if passes < levels then Alcotest.failf "%d passes over %d levels" passes levels)

(* -- Recursive bisection (k-way) -- *)

module Rb = Hypart_multilevel.Recursive_bisection
module Kway_fm = Hypart_fm.Kway_fm

let test_kway_partitions_all () =
  let h = instance () in
  let r = Rb.run ~k:4 (Rng.create 30) h in
  Array.iter
    (fun p -> Alcotest.(check bool) "part in range" true (p >= 0 && p < 4))
    r.Kway_fm.part_of;
  Alcotest.(check int) "4 part weights" 4 (Array.length (Hypart_partition.Kway_objective.part_weights h r.Kway_fm.part_of ~k:4));
  Alcotest.(check int) "weights sum to total" (H.total_vertex_weight h)
    (Array.fold_left ( + ) 0 (Hypart_partition.Kway_objective.part_weights h r.Kway_fm.part_of ~k:4))

let test_kway_cut_consistent () =
  let h = instance () in
  let r = Rb.run ~k:4 (Rng.create 31) h in
  Alcotest.(check int) "reported cut matches recomputation"
    (Hypart_partition.Kway_objective.cut h r.Kway_fm.part_of) r.Kway_fm.cut

let test_kway_k1_k2 () =
  let h = instance () in
  let r1 = Rb.run ~k:1 (Rng.create 32) h in
  Alcotest.(check int) "k=1 no cut" 0 r1.Kway_fm.cut;
  let r2 = Rb.run ~k:2 (Rng.create 32) h in
  Alcotest.(check bool) "k=2 cuts something" true (r2.Kway_fm.cut > 0)

let test_kway_odd_k_balanced () =
  let h = instance () in
  let r = Rb.run ~k:3 ~tolerance:0.10 (Rng.create 33) h in
  let total = H.total_vertex_weight h in
  let target = total / 3 in
  Array.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "part weight %d near %d" w target)
        true
        (float_of_int w > 0.6 *. float_of_int target
        && float_of_int w < 1.5 *. float_of_int target))
    (Hypart_partition.Kway_objective.part_weights h r.Kway_fm.part_of ~k:3)

let test_kway_more_parts_more_cut () =
  let h = instance () in
  let r2 = Rb.run ~k:2 (Rng.create 34) h in
  let r8 = Rb.run ~k:8 (Rng.create 34) h in
  Alcotest.(check bool) "8-way cut >= 2-way cut" true (r8.Kway_fm.cut >= r2.Kway_fm.cut)

let test_kway_invalid () =
  let h = instance () in
  Alcotest.check_raises "k = 0" (Invalid_argument "x") (fun () ->
      try ignore (Rb.run ~k:0 (Rng.create 1) h)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* -- Multilevel k-way -- *)

module Mlk = Hypart_multilevel.Ml_kway

let test_ml_kway_valid () =
  let h = instance () in
  let r = Mlk.run ~k:4 (Rng.create 50) h in
  Alcotest.(check bool) "legal" true r.Kway_fm.legal;
  Alcotest.(check int) "cut consistent" (Hypart_partition.Kway_objective.cut h r.Kway_fm.part_of)
    r.Kway_fm.cut;
  Array.iter
    (fun p -> Alcotest.(check bool) "part in range" true (p >= 0 && p < 4))
    r.Kway_fm.part_of

let test_ml_kway_beats_flat_kway () =
  let h = Suite.instance ~scale:16.0 "ibm01" in
  let total_ml = ref 0 and total_flat = ref 0 in
  for seed = 0 to 2 do
    let ml = Mlk.run ~k:4 (Rng.create (200 + seed)) h in
    let flat = Kway_fm.run_random_start ~k:4 (Rng.create (200 + seed)) h in
    total_ml := !total_ml + ml.Kway_fm.cut;
    total_flat := !total_flat + flat.Kway_fm.cut
  done;
  Alcotest.(check bool)
    (Printf.sprintf "ml kway (%d) <= flat kway (%d)" !total_ml !total_flat)
    true (!total_ml <= !total_flat)

let test_ml_kway_balanced () =
  let h = instance () in
  let r = Mlk.run ~k:3 ~tolerance:0.10 (Rng.create 51) h in
  let w = Array.make 3 0 in
  Array.iteri (fun v p -> w.(p) <- w.(p) + H.vertex_weight h v) r.Kway_fm.part_of;
  let target = H.total_vertex_weight h / 3 in
  Array.iter
    (fun weight ->
      Alcotest.(check bool)
        (Printf.sprintf "weight %d near %d" weight target)
        true
        (float_of_int weight >= 0.85 *. float_of_int target
        && float_of_int weight <= 1.15 *. float_of_int target))
    w

let test_ml_kway_invalid () =
  let h = instance () in
  Alcotest.check_raises "k=1" (Invalid_argument "x") (fun () ->
      try ignore (Mlk.run ~k:1 (Rng.create 1) h)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* -- KL baseline -- *)

module Kl = Hypart_kl.Kl

(* KL keeps an equal-cardinality bisection whatever the window *)
let kl_problem h = Problem.make ~tolerance:0.10 h

let test_kl_two_cliques () =
  let clique lo =
    let acc = ref [] in
    for i = 0 to 7 do
      for j = i + 1 to 7 do
        acc := [| lo + i; lo + j |] :: !acc
      done
    done;
    !acc
  in
  let edges = Array.of_list (clique 0 @ clique 8 @ [ [| 0; 8 |] ]) in
  let h = H.create ~num_vertices:16 ~edges () in
  let r = Kl.run_random_start (Rng.create 20) (kl_problem h) in
  Alcotest.(check int) "optimal cut" 1 r.Engine.Result.cut;
  Alcotest.(check int) "cut consistent" (Bipartition.cut h r.Engine.Result.solution) r.Engine.Result.cut

let test_kl_preserves_cardinality () =
  let h = random_instance ~nv:40 ~ne:80 21 in
  let r = Kl.run_random_start (Rng.create 22) (kl_problem h) in
  let n0 = ref 0 in
  for v = 0 to 39 do
    if Bipartition.side r.Engine.Result.solution v = 0 then incr n0
  done;
  Alcotest.(check int) "exact bisection kept" 20 !n0

let test_kl_rejects_unbalanced_start () =
  let h = random_instance ~nv:10 ~ne:20 23 in
  let side = Array.make 10 0 in
  side.(0) <- 1;
  let s = Bipartition.make h side in
  Alcotest.check_raises "unbalanced rejected" (Invalid_argument "x") (fun () ->
      try ignore (Kl.run (Rng.create 24) (kl_problem h) s)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_kl_improves () =
  let h = random_instance ~nv:40 ~ne:90 25 in
  let rng = Rng.create 26 in
  let perm = Rng.permutation rng 40 in
  let side = Array.make 40 1 in
  for i = 0 to 19 do
    side.(perm.(i)) <- 0
  done;
  let s = Bipartition.make h side in
  let c0 = Bipartition.cut h s in
  let r = Kl.run rng (kl_problem h) s in
  Alcotest.(check bool) "no worse" true (r.Engine.Result.cut <= c0)

let prop_ml_results_valid =
  QCheck.Test.make ~name:"ml results legal with consistent cut" ~count:15
    QCheck.(pair small_int (int_range 60 250))
    (fun (seed, nv) ->
      let h = random_instance ~nv ~ne:(nv * 2) seed in
      let p = Problem.make ~tolerance:0.10 h in
      let r = Ml.run (Rng.create seed) p in
      r.Engine.Result.legal && r.Engine.Result.cut = Bipartition.cut h r.Engine.Result.solution)

let () =
  Alcotest.run "multilevel"
    [
      ( "matching",
        [
          Alcotest.test_case "is a clustering" `Quick test_matching_is_clustering;
          Alcotest.test_case "weight cap" `Quick test_matching_respects_weight_cap;
          Alcotest.test_case "fixed sides" `Quick test_matching_respects_fixed;
          Alcotest.test_case "partition restriction" `Quick
            test_matching_respects_partition_restriction;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "first choice grows clusters" `Quick
            test_first_choice_grows_clusters;
          Alcotest.test_case "first choice fixed sides" `Quick
            test_first_choice_respects_fixed;
          Alcotest.test_case "hyperedge coarsening" `Quick
            test_hyperedge_coarsening_valid;
          Alcotest.test_case "all schemes run" `Quick test_all_schemes_run_ml;
          Alcotest.test_case "boundary refinement" `Quick test_boundary_refinement;
        ] );
      ( "coarsen",
        [
          Alcotest.test_case "reduces" `Quick test_coarsen_reduces;
          Alcotest.test_case "monotone levels" `Quick test_coarsen_monotone_levels;
          Alcotest.test_case "projection preserves cut" `Quick
            test_project_preserves_cut;
        ] );
      ( "ml partitioner",
        [
          Alcotest.test_case "legal and consistent" `Quick test_ml_legal_and_consistent;
          Alcotest.test_case "beats flat" `Quick test_ml_beats_flat;
          Alcotest.test_case "fixed vertices" `Quick test_ml_respects_fixed;
          Alcotest.test_case "clip variant" `Quick test_ml_clip_variant;
          Alcotest.test_case "vcycle never worse" `Quick test_vcycle_never_worse;
          Alcotest.test_case "multistart" `Quick test_ml_multistart;
          Alcotest.test_case "multistart + vcycle" `Quick
            test_ml_multistart_with_vcycle;
          Alcotest.test_case "deterministic" `Quick test_ml_deterministic;
          Alcotest.test_case "stats count every level" `Quick test_ml_stats_count_every_level;
        ] );
      ( "recursive bisection",
        [
          Alcotest.test_case "partitions all" `Quick test_kway_partitions_all;
          Alcotest.test_case "cut consistent" `Quick test_kway_cut_consistent;
          Alcotest.test_case "k=1 and k=2" `Quick test_kway_k1_k2;
          Alcotest.test_case "odd k balanced" `Quick test_kway_odd_k_balanced;
          Alcotest.test_case "more parts, more cut" `Quick
            test_kway_more_parts_more_cut;
          Alcotest.test_case "invalid k" `Quick test_kway_invalid;
        ] );
      ( "ml kway",
        [
          Alcotest.test_case "valid" `Quick test_ml_kway_valid;
          Alcotest.test_case "beats flat kway" `Quick test_ml_kway_beats_flat_kway;
          Alcotest.test_case "balanced" `Quick test_ml_kway_balanced;
          Alcotest.test_case "invalid" `Quick test_ml_kway_invalid;
        ] );
      ( "kl baseline",
        [
          Alcotest.test_case "two cliques" `Quick test_kl_two_cliques;
          Alcotest.test_case "cardinality preserved" `Quick
            test_kl_preserves_cardinality;
          Alcotest.test_case "rejects unbalanced" `Quick
            test_kl_rejects_unbalanced_start;
          Alcotest.test_case "improves" `Quick test_kl_improves;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_ml_results_valid ]);
    ]
