module H = Hypart_hypergraph.Hypergraph
module Clique = Hypart_hypergraph.Clique_expansion
module Rng = Hypart_rng.Rng
module Bipartition = Hypart_partition.Bipartition
module Spectral = Hypart_spectral.Spectral
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Result = Hypart_engine.Engine.Result

(* the sweep ignores the balance window; any tolerance will do *)
let spectral seed h = Spectral.run (Rng.create seed) (Problem.make ~tolerance:0.10 h)

(* -- clique expansion -- *)

let test_clique_weights () =
  (* a 3-pin net: weight w/(s-1) = 1/2 between each pair *)
  let h = H.create ~num_vertices:3 ~edges:[| [| 0; 1; 2 |] |] () in
  let adj = Clique.adjacency h in
  Alcotest.(check int) "v0 has 2 neighbours" 2 (List.length adj.(0));
  List.iter
    (fun (_, w) -> Alcotest.(check (float 1e-9)) "pair weight" 0.5 w)
    adj.(0)

let test_clique_accumulates () =
  (* two 2-pin nets between the same pair accumulate *)
  let h = H.create ~num_vertices:2 ~edges:[| [| 0; 1 |]; [| 0; 1 |] |] () in
  let adj = Clique.adjacency h in
  Alcotest.(check int) "one neighbour entry" 1 (List.length adj.(0));
  Alcotest.(check (float 1e-9)) "accumulated weight" 2.0 (snd (List.hd adj.(0)))

let test_clique_skips_large_nets () =
  let h =
    H.create ~num_vertices:10
      ~edges:[| Array.init 10 (fun i -> i); [| 0; 1 |] |]
      ()
  in
  let adj = Clique.adjacency ~skip_nets_above:5 h in
  Alcotest.(check int) "only the small net contributes" 1 (List.length adj.(0));
  Alcotest.(check int) "isolated under the model" 0 (List.length adj.(9))

let test_clique_degrees () =
  let h = H.create ~num_vertices:3 ~edges:[| [| 0; 1; 2 |] |] () in
  let deg = Clique.degrees (Clique.adjacency h) in
  Array.iter (fun d -> Alcotest.(check (float 1e-9)) "degree 1.0" 1.0 d) deg

(* -- spectral -- *)

let two_clusters () =
  let clique lo =
    let acc = ref [] in
    for i = 0 to 7 do
      for j = i + 1 to 7 do
        acc := [| lo + i; lo + j |] :: !acc
      done
    done;
    !acc
  in
  H.create ~num_vertices:16
    ~edges:(Array.of_list (clique 0 @ clique 8 @ [ [| 0; 8 |] ]))
    ()

let test_spectral_two_clusters () =
  let h = two_clusters () in
  let r = spectral 1 h in
  Alcotest.(check int) "finds the bridge" 1 r.Result.cut;
  (* the two cliques end up on opposite sides *)
  let s = r.Result.solution in
  for v = 1 to 7 do
    Alcotest.(check int) "clique A together" (Bipartition.side s 0)
      (Bipartition.side s v)
  done;
  for v = 9 to 15 do
    Alcotest.(check int) "clique B together" (Bipartition.side s 8)
      (Bipartition.side s v)
  done

let test_spectral_fiedler_signs () =
  (* on two cliques the Fiedler coordinates separate by sign *)
  let h = two_clusters () in
  let f = Spectral.fiedler (Rng.create 2) h in
  let sign x = x >= 0.0 in
  for v = 1 to 7 do
    Alcotest.(check bool) "same sign in A" (sign f.(0)) (sign f.(v))
  done;
  Alcotest.(check bool) "opposite across" (not (sign f.(0))) (sign f.(8))

let test_spectral_cut_consistent () =
  let h = Suite.instance ~scale:32.0 "ibm01" in
  let r = spectral 3 h in
  Alcotest.(check int) "cut matches solution"
    (Bipartition.cut h r.Result.solution)
    r.Result.cut;
  Alcotest.(check bool) "nonempty parts" true
    (Bipartition.part_weight r.Result.solution 0 > 0
    && Bipartition.part_weight r.Result.solution 1 > 0)

let test_spectral_better_than_random_split () =
  let h = Suite.instance ~scale:32.0 "ibm01" in
  let r = spectral 4 h in
  (* random split of the same sizes *)
  let n = H.num_vertices h in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if Bipartition.side r.Result.solution v = 0 then incr k
  done;
  let perm = Rng.permutation (Rng.create 5) n in
  let side = Array.make n 1 in
  for i = 0 to !k - 1 do
    side.(perm.(i)) <- 0
  done;
  let random_cut = Bipartition.cut h (Bipartition.make h side) in
  Alcotest.(check bool)
    (Printf.sprintf "spectral %d < random %d" r.Result.cut random_cut)
    true
    (r.Result.cut < random_cut)

let test_spectral_deterministic () =
  let h = Suite.instance ~scale:64.0 "ibm02" in
  let a = spectral 6 h in
  let b = spectral 6 h in
  Alcotest.(check int) "same seed same cut" a.Result.cut b.Result.cut

let test_spectral_tiny () =
  let h = H.create ~num_vertices:2 ~edges:[| [| 0; 1 |] |] () in
  let r = spectral 7 h in
  Alcotest.(check bool) "handles 2 vertices" true (r.Result.cut >= 0);
  Alcotest.check_raises "rejects 1 vertex" (Invalid_argument "x") (fun () ->
      try ignore (spectral 8 (H.create ~num_vertices:1 ~edges:[||] ()))
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let () =
  Alcotest.run "spectral"
    [
      ( "clique expansion",
        [
          Alcotest.test_case "pair weights" `Quick test_clique_weights;
          Alcotest.test_case "accumulation" `Quick test_clique_accumulates;
          Alcotest.test_case "large nets skipped" `Quick test_clique_skips_large_nets;
          Alcotest.test_case "degrees" `Quick test_clique_degrees;
        ] );
      ( "eig1",
        [
          Alcotest.test_case "two clusters" `Quick test_spectral_two_clusters;
          Alcotest.test_case "fiedler signs" `Quick test_spectral_fiedler_signs;
          Alcotest.test_case "cut consistent" `Quick test_spectral_cut_consistent;
          Alcotest.test_case "beats random" `Quick test_spectral_better_than_random_split;
          Alcotest.test_case "deterministic" `Quick test_spectral_deterministic;
          Alcotest.test_case "tiny inputs" `Quick test_spectral_tiny;
        ] );
    ]
