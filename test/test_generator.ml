module H = Hypart_hypergraph.Hypergraph
module S = Hypart_hypergraph.Stats_summary
module Rng = Hypart_rng.Rng
module G = Hypart_generator.Generator
module Suite = Hypart_generator.Ibm_suite

let gen ?(seed = 1) ~cells ~nets ~pins () =
  let p = G.default_params ~num_cells:cells ~num_nets:nets ~num_pins:pins in
  G.generate (Rng.create seed) p

let test_counts () =
  let h = gen ~cells:2000 ~nets:2200 ~pins:8000 () in
  Alcotest.(check int) "cells" 2000 (H.num_vertices h);
  Alcotest.(check int) "nets" 2200 (H.num_edges h);
  let pins = H.num_pins h in
  Alcotest.(check bool)
    (Printf.sprintf "pins %d within 15%% of target" pins)
    true
    (abs (pins - 8000) < 8000 * 15 / 100)

let test_no_isolated_cells () =
  let h = gen ~cells:3000 ~nets:3300 ~pins:11000 () in
  for v = 0 to H.num_vertices h - 1 do
    if H.vertex_degree h v = 0 then
      Alcotest.failf "cell %d is isolated" v
  done

let test_realistic_shape () =
  let h = gen ~cells:5000 ~nets:5500 ~pins:20000 () in
  let s = H.stats h in
  Alcotest.(check bool) "avg net size in [2.5, 5.5]" true
    (s.S.avg_edge_size >= 2.5 && s.S.avg_edge_size <= 5.5);
  Alcotest.(check bool) "avg degree in [2, 6]" true
    (s.S.avg_vertex_degree >= 2.0 && s.S.avg_vertex_degree <= 6.0);
  Alcotest.(check bool) "has mega nets" true (s.S.edges_over_50_pins >= 1);
  Alcotest.(check bool) "wide area variation" true
    (s.S.max_area > 100 * s.S.min_area)

let test_macro_triggers_corking () =
  (* At least one cell must exceed the 2% balance slack, otherwise the
     corking experiments are vacuous. *)
  let h = gen ~cells:5000 ~nets:5500 ~pins:20000 () in
  let total = H.total_vertex_weight h in
  let slack = int_of_float (0.02 *. float_of_int total) in
  let found = ref false in
  for v = 0 to H.num_vertices h - 1 do
    if H.vertex_weight h v > slack then found := true
  done;
  Alcotest.(check bool) "some cell larger than 2% slack" true !found

let test_determinism () =
  let a = gen ~seed:7 ~cells:500 ~nets:550 ~pins:2000 () in
  let b = gen ~seed:7 ~cells:500 ~nets:550 ~pins:2000 () in
  Alcotest.(check int) "same pins" (H.num_pins a) (H.num_pins b);
  let same = ref true in
  for e = 0 to H.num_edges a - 1 do
    if Incidence.pins a e <> Incidence.pins b e then same := false
  done;
  Alcotest.(check bool) "identical nets" true !same

let test_seed_changes_instance () =
  let a = gen ~seed:1 ~cells:500 ~nets:550 ~pins:2000 () in
  let b = gen ~seed:2 ~cells:500 ~nets:550 ~pins:2000 () in
  let differs = ref false in
  for e = 0 to H.num_edges a - 1 do
    if Incidence.pins a e <> Incidence.pins b e then differs := true
  done;
  Alcotest.(check bool) "different instance" true !differs

let test_locality () =
  (* Nets drawn from a local hierarchy must produce a much better
     bisection than a uniformly random hypergraph would: cutting at the
     midpoint of the cell ordering should cut only a small fraction of
     nets. *)
  let h = gen ~cells:4096 ~nets:4500 ~pins:16000 () in
  let n = H.num_vertices h in
  let cut = ref 0 in
  for e = 0 to H.num_edges h - 1 do
    let has_left = ref false and has_right = ref false in
    H.iter_pins h e (fun v -> if v < n / 2 then has_left := true else has_right := true);
    if !has_left && !has_right then incr cut
  done;
  let frac = float_of_int !cut /. float_of_int (H.num_edges h) in
  Alcotest.(check bool)
    (Printf.sprintf "ordering cut fraction %.3f < 0.25" frac)
    true (frac < 0.25)

(* ibm01 .. ibm18, through the public lookup *)
let all_profiles = List.init 18 (fun i -> Suite.find (Printf.sprintf "ibm%02d" (i + 1)))

let test_suite_profiles () =
  Alcotest.(check (list string)) "18 profiles, in order"
    (List.init 18 (fun i -> Printf.sprintf "ibm%02d" (i + 1)))
    (List.map (fun p -> p.Suite.name) all_profiles);
  let p = Suite.find "ibm01" in
  Alcotest.(check int) "ibm01 cells" 12752 p.Suite.cells;
  let p18 = Suite.find "ibm18s" in
  Alcotest.(check string) "alias resolves" "ibm18" p18.Suite.name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Suite.find "ibm99"))

let test_suite_instance_scaled () =
  let h = Suite.instance ~scale:16.0 "ibm01" in
  let p = Suite.find "ibm01" in
  let expect = p.Suite.cells / 16 in
  Alcotest.(check bool) "scaled size" true
    (abs (H.num_vertices h - expect) <= 1);
  Alcotest.(check int) "cells without generating" (H.num_vertices h)
    (Suite.cells ~scale:16.0 "ibm01")

let test_suite_instance_stable () =
  let a = Suite.instance ~scale:32.0 "ibm02" in
  let b = Suite.instance ~scale:32.0 "ibm02" in
  Alcotest.(check int) "same instance each call" (H.num_pins a) (H.num_pins b)

let test_all_profiles_generate () =
  (* every profile generates (at reduced scale) with statistics close to
     its published shape *)
  List.iter
    (fun profile ->
      let name = profile.Suite.name in
      let h = Suite.instance ~scale:64.0 name in
      let expected_cells = max 16 (profile.Suite.cells / 64) in
      let expected_nets = max 16 (profile.Suite.nets / 64) in
      Alcotest.(check int) (name ^ " cells") expected_cells (H.num_vertices h);
      Alcotest.(check int) (name ^ " cells ungenerated") expected_cells
        (Suite.cells ~scale:64.0 name);
      Alcotest.(check int) (name ^ " nets") expected_nets (H.num_edges h);
      let s = H.stats h in
      Alcotest.(check bool)
        (Printf.sprintf "%s avg net size %.2f realistic" name s.S.avg_edge_size)
        true
        (s.S.avg_edge_size >= 2.0 && s.S.avg_edge_size <= 7.0))
    all_profiles

let prop_all_nets_at_least_two_pins =
  QCheck.Test.make ~name:"every generated net has >= 2 pins" ~count:20
    QCheck.(pair small_int (int_range 100 2000))
    (fun (seed, cells) ->
      let h =
        gen ~seed ~cells ~nets:(cells * 11 / 10) ~pins:(cells * 4) ()
      in
      let ok = ref true in
      for e = 0 to H.num_edges h - 1 do
        if H.edge_size h e < 2 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "generator"
    [
      ( "generate",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "no isolated cells" `Quick test_no_isolated_cells;
          Alcotest.test_case "realistic shape" `Quick test_realistic_shape;
          Alcotest.test_case "macros exceed balance slack" `Quick
            test_macro_triggers_corking;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "seed-sensitive" `Quick test_seed_changes_instance;
          Alcotest.test_case "locality" `Quick test_locality;
        ] );
      ( "ibm suite",
        [
          Alcotest.test_case "profiles" `Quick test_suite_profiles;
          Alcotest.test_case "scaled instance" `Quick test_suite_instance_scaled;
          Alcotest.test_case "stable instance" `Quick test_suite_instance_stable;
          Alcotest.test_case "all 18 profiles" `Quick test_all_profiles_generate;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_all_nets_at_least_two_pins ]);
    ]
