module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Topdown = Hypart_placement.Topdown

let instance () = Suite.instance ~scale:32.0 "ibm01"

let test_place_in_bounds () =
  let h = instance () in
  let pl = Topdown.place (Rng.create 1) h in
  Alcotest.(check int) "x per cell" (H.num_vertices h) (Array.length pl.Topdown.x);
  for v = 0 to H.num_vertices h - 1 do
    let x = pl.Topdown.x.(v) and y = pl.Topdown.y.(v) in
    if not (x >= 0.0 && x <= pl.Topdown.width && y >= 0.0 && y <= pl.Topdown.height)
    then Alcotest.failf "cell %d at (%f, %f) outside chip" v x y
  done

let test_place_deterministic () =
  let h = instance () in
  let a = Topdown.place (Rng.create 2) h in
  let b = Topdown.place (Rng.create 2) h in
  Alcotest.(check bool) "same seed, same placement" true
    (a.Topdown.x = b.Topdown.x && a.Topdown.y = b.Topdown.y)

let test_place_beats_random () =
  let h = instance () in
  let placed = Topdown.place (Rng.create 3) h in
  let random = Topdown.random_placement (Rng.create 4) h in
  let hp = Topdown.hpwl h placed and hr = Topdown.hpwl h random in
  Alcotest.(check bool)
    (Printf.sprintf "min-cut HPWL %.0f < half of random %.0f" hp hr)
    true
    (hp < hr /. 2.0)

let test_place_spreads_cells () =
  (* cells must not all collapse onto one point *)
  let h = instance () in
  let pl = Topdown.place (Rng.create 5) h in
  let xs = Array.to_list pl.Topdown.x in
  let distinct = List.sort_uniq compare xs in
  Alcotest.(check bool) "many distinct x coordinates" true
    (List.length distinct > H.num_vertices h / 8)

let test_hpwl_basic () =
  (* two cells at distance (3, 4): HPWL = 7 *)
  let h = H.create ~num_vertices:2 ~edges:[| [| 0; 1 |] |] () in
  let pl =
    { Topdown.x = [| 0.0; 3.0 |]; y = [| 0.0; 4.0 |]; width = 10.0; height = 10.0 }
  in
  Alcotest.(check (float 1e-9)) "hpwl" 7.0 (Topdown.hpwl h pl)

let test_hpwl_weighted () =
  let h =
    H.create ~num_vertices:2 ~edge_weights:[| 3 |] ~edges:[| [| 0; 1 |] |] ()
  in
  let pl =
    { Topdown.x = [| 0.0; 1.0 |]; y = [| 0.0; 0.0 |]; width = 10.0; height = 10.0 }
  in
  Alcotest.(check (float 1e-9)) "weighted hpwl" 3.0 (Topdown.hpwl h pl)

let test_small_instances () =
  (* placer must not crash on degenerate sizes *)
  List.iter
    (fun n ->
      let edges = if n >= 2 then [| Array.init n (fun i -> i) |] else [||] in
      let h = H.create ~num_vertices:n ~edges () in
      let pl = Topdown.place (Rng.create 6) h in
      Alcotest.(check int) "placed all" n (Array.length pl.Topdown.x))
    [ 1; 2; 3; 9 ]

let test_macro_instance () =
  (* a macro-heavy instance places without violating chip bounds *)
  let weights = Array.make 64 1 in
  weights.(0) <- 40;
  let rng = Rng.create 7 in
  let edges =
    Array.init 120 (fun _ -> Hypart_rng.Rng.sample_distinct rng ~n:3 ~universe:64)
  in
  let h = H.create ~num_vertices:64 ~vertex_weights:weights ~edges () in
  let pl = Topdown.place (Rng.create 8) h in
  for v = 0 to 63 do
    Alcotest.(check bool) "in bounds" true
      (pl.Topdown.x.(v) >= 0.0 && pl.Topdown.x.(v) <= pl.Topdown.width)
  done

(* -- Detailed placement -- *)

module Detailed = Hypart_placement.Detailed

let coarse () =
  let h = instance () in
  (h, Topdown.place (Rng.create 1) h)

let test_legalize_structure () =
  let h, pl = coarse () in
  let n = H.num_vertices h in
  let leg = Detailed.legalize h pl in
  Alcotest.(check int) "row per cell" n (Array.length leg.Detailed.rows.Detailed.row_of);
  Array.iter
    (fun r ->
      Alcotest.(check bool) "row in range" true
        (r >= 0 && r < leg.Detailed.rows.Detailed.num_rows))
    leg.Detailed.rows.Detailed.row_of;
  (* y coordinates are row centres *)
  let height = leg.Detailed.rows.Detailed.row_height in
  for v = 0 to n - 1 do
    let r = leg.Detailed.rows.Detailed.row_of.(v) in
    let expect = (float_of_int r +. 0.5) *. height in
    if abs_float (leg.Detailed.placement.Topdown.y.(v) -. expect) > 1e-9 then
      Alcotest.failf "cell %d not on its row centre" v
  done

let test_legalize_no_slot_overlap () =
  let h, pl = coarse () in
  let leg = Detailed.legalize h pl in
  (* within a row, x coordinates are pairwise distinct *)
  let by_row = Hashtbl.create 16 in
  Array.iteri
    (fun v r ->
      let xs = try Hashtbl.find by_row r with Not_found -> [] in
      Hashtbl.replace by_row r (leg.Detailed.placement.Topdown.x.(v) :: xs))
    leg.Detailed.rows.Detailed.row_of;
  Hashtbl.iter
    (fun _ xs ->
      let sorted = List.sort_uniq compare xs in
      Alcotest.(check int) "distinct slots" (List.length xs) (List.length sorted))
    by_row

let test_legalize_rows_balanced () =
  let h, pl = coarse () in
  let leg = Detailed.legalize ~num_rows:10 h pl in
  let counts = Array.make 10 0 in
  Array.iter (fun r -> counts.(r) <- counts.(r) + 1) leg.Detailed.rows.Detailed.row_of;
  let mx = Array.fold_left max 0 counts and mn = Array.fold_left min max_int counts in
  Alcotest.(check bool) "rows within one cell of each other" true (mx - mn <= 1)

let test_legalize_preserves_locality () =
  (* legalization must not destroy the coarse placement's quality: the
     legalized HPWL stays within a small factor *)
  let h, pl = coarse () in
  let leg = Detailed.legalize h pl in
  let before = Topdown.hpwl h pl in
  let after = Topdown.hpwl h leg.Detailed.placement in
  Alcotest.(check bool)
    (Printf.sprintf "legalized %.0f within 2x of coarse %.0f" after before)
    true (after < 2.0 *. before)

let test_anneal_improves () =
  let h, pl = coarse () in
  let leg = Detailed.legalize h pl in
  let refined, stats = Detailed.anneal ~moves_per_cell:30 (Rng.create 2) h leg in
  Alcotest.(check bool) "hpwl not worse" true
    (stats.Detailed.final_hpwl <= stats.Detailed.initial_hpwl +. 1e-6);
  Alcotest.(check (float 1e-6)) "final matches returned placement"
    stats.Detailed.final_hpwl
    (Topdown.hpwl h refined.Detailed.placement);
  Alcotest.(check bool) "some moves attempted" true (stats.Detailed.attempted > 0)

let test_anneal_on_random_start_improves_substantially () =
  (* annealing a random placement must recover a large fraction of
     wirelength (the classic stochastic-hill-climbing result) *)
  let h = instance () in
  let random = Topdown.random_placement (Rng.create 3) h in
  let leg = Detailed.legalize h random in
  let _, stats = Detailed.anneal ~moves_per_cell:60 (Rng.create 4) h leg in
  Alcotest.(check bool)
    (Printf.sprintf "improved %.0f -> %.0f" stats.Detailed.initial_hpwl
       stats.Detailed.final_hpwl)
    true
    (stats.Detailed.final_hpwl < 0.8 *. stats.Detailed.initial_hpwl)

let test_anneal_deterministic () =
  let h, pl = coarse () in
  let leg = Detailed.legalize h pl in
  let a, sa = Detailed.anneal ~moves_per_cell:10 (Rng.create 5) h leg in
  let b, sb = Detailed.anneal ~moves_per_cell:10 (Rng.create 5) h leg in
  Alcotest.(check (float 1e-9)) "same final hpwl" sa.Detailed.final_hpwl
    sb.Detailed.final_hpwl;
  Alcotest.(check bool) "same placement" true
    (a.Detailed.placement.Topdown.x = b.Detailed.placement.Topdown.x)

(* -- Congestion (RUDY) -- *)

module Congestion = Hypart_placement.Congestion

let test_rudy_conserves_demand () =
  let h, pl = coarse () in
  let map = Congestion.rudy ~bins:8 h pl in
  let binned =
    Array.fold_left
      (fun acc row -> Array.fold_left ( +. ) acc row)
      0.0 map.Congestion.demand
  in
  let direct = Topdown.hpwl h pl in
  Alcotest.(check bool)
    (Printf.sprintf "binned %.0f ~ direct %.0f" binned direct)
    true
    (Float.abs (binned -. direct) < 0.02 *. direct +. 1.0)

let test_rudy_peak_average () =
  let h, pl = coarse () in
  let map = Congestion.rudy h pl in
  Alcotest.(check bool) "peak >= average" true
    (Congestion.peak map >= Congestion.average map);
  Alcotest.(check bool) "average positive" true (Congestion.average map > 0.0)

let test_rudy_concentration () =
  (* piling everything into one corner concentrates demand: the peak of
     a clustered placement exceeds the peak of a spread one *)
  let h = instance () in
  let n = H.num_vertices h in
  let spread = Topdown.place (Rng.create 1) h in
  let corner =
    {
      Topdown.x = Array.init n (fun v -> float_of_int (v mod 4) +. 1.0);
      y = Array.init n (fun v -> float_of_int (v / 4 mod 4) +. 1.0);
      width = spread.Topdown.width;
      height = spread.Topdown.height;
    }
  in
  Alcotest.(check bool) "corner pile more congested" true
    (Congestion.peak (Congestion.rudy h corner)
    > Congestion.peak (Congestion.rudy h spread))

let test_rudy_two_cells () =
  (* one 2-pin net spanning (0,0)-(10,0): demand 10, confined to row 0 *)
  let h = H.create ~num_vertices:2 ~edges:[| [| 0; 1 |] |] () in
  let pl = { Topdown.x = [| 0.0; 10.0 |]; y = [| 0.0; 0.0 |]; width = 10.0; height = 10.0 } in
  let map = Congestion.rudy ~bins:2 h pl in
  Alcotest.(check (float 1e-6)) "demand lands in bottom row" 10.0
    (map.Congestion.demand.(0).(0) +. map.Congestion.demand.(0).(1));
  Alcotest.(check (float 1e-6)) "top row empty" 0.0
    (map.Congestion.demand.(1).(0) +. map.Congestion.demand.(1).(1))

let test_rudy_invalid () =
  let h, pl = coarse () in
  Alcotest.check_raises "bins" (Invalid_argument "x") (fun () ->
      try ignore (Congestion.rudy ~bins:0 h pl)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* -- SVG export -- *)

module Svg = Hypart_placement.Svg_export

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
  scan 0

let test_svg_export () =
  let h, pl = coarse () in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "hypart_place.svg" in
  Svg.write path h pl;
  let svg = read_file path in
  Alcotest.(check bool) "svg header" true (contains svg "<svg");
  Alcotest.(check bool) "closed" true (contains svg "</svg>");
  (* one rect per cell plus the background *)
  let rects = ref 0 in
  String.iteri
    (fun i c ->
      if c = '<' && i + 5 <= String.length svg && String.sub svg i 5 = "<rect" then
        incr rects)
    svg;
  Alcotest.(check int) "one rect per cell + frame" (H.num_vertices h + 1) !rects

let test_svg_export_sides () =
  let h, pl = coarse () in
  let n = H.num_vertices h in
  let side = Array.init n (fun v -> v mod 2) in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "hypart_side.svg" in
  Svg.write ~side ~draw_nets:false path h pl;
  let svg = read_file path in
  Alcotest.(check bool) "two colours used" true
    (contains svg "#4472c4" && contains svg "#ed7d31");
  Alcotest.(check bool) "no nets drawn" false (contains svg "<line")

let test_svg_export_rejects_bad_side () =
  let h, pl = coarse () in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "hypart_bad.svg" in
  Alcotest.check_raises "bad side length" (Invalid_argument "x") (fun () ->
      try Svg.write ~side:[| 0 |] path h pl
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let prop_place_valid =
  QCheck.Test.make ~name:"placements always in bounds" ~count:15
    QCheck.(pair small_int (int_range 10 200))
    (fun (seed, nv) ->
      let rng = Rng.create seed in
      let edges =
        Array.init (2 * nv) (fun _ ->
            Hypart_rng.Rng.sample_distinct rng ~n:(2 + Rng.int rng 3) ~universe:nv)
      in
      let h = H.create ~num_vertices:nv ~edges () in
      let pl = Topdown.place (Rng.create (seed + 1)) h in
      let ok = ref true in
      for v = 0 to nv - 1 do
        if
          not
            (pl.Topdown.x.(v) >= 0.0
            && pl.Topdown.x.(v) <= pl.Topdown.width
            && pl.Topdown.y.(v) >= 0.0
            && pl.Topdown.y.(v) <= pl.Topdown.height)
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "placement"
    [
      ( "topdown",
        [
          Alcotest.test_case "in bounds" `Quick test_place_in_bounds;
          Alcotest.test_case "deterministic" `Quick test_place_deterministic;
          Alcotest.test_case "beats random" `Quick test_place_beats_random;
          Alcotest.test_case "spreads cells" `Quick test_place_spreads_cells;
          Alcotest.test_case "small instances" `Quick test_small_instances;
          Alcotest.test_case "macro instance" `Quick test_macro_instance;
        ] );
      ( "hpwl",
        [
          Alcotest.test_case "basic" `Quick test_hpwl_basic;
          Alcotest.test_case "weighted" `Quick test_hpwl_weighted;
        ] );
      ( "detailed",
        [
          Alcotest.test_case "legalize structure" `Quick test_legalize_structure;
          Alcotest.test_case "no slot overlap" `Quick test_legalize_no_slot_overlap;
          Alcotest.test_case "rows balanced" `Quick test_legalize_rows_balanced;
          Alcotest.test_case "locality preserved" `Quick
            test_legalize_preserves_locality;
          Alcotest.test_case "anneal improves" `Quick test_anneal_improves;
          Alcotest.test_case "anneal from random" `Quick
            test_anneal_on_random_start_improves_substantially;
          Alcotest.test_case "anneal deterministic" `Quick test_anneal_deterministic;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "conserves demand" `Quick test_rudy_conserves_demand;
          Alcotest.test_case "peak/average" `Quick test_rudy_peak_average;
          Alcotest.test_case "concentration" `Quick test_rudy_concentration;
          Alcotest.test_case "two cells" `Quick test_rudy_two_cells;
          Alcotest.test_case "invalid bins" `Quick test_rudy_invalid;
        ] );
      ( "svg",
        [
          Alcotest.test_case "export" `Quick test_svg_export;
          Alcotest.test_case "partition colours" `Quick test_svg_export_sides;
          Alcotest.test_case "bad side" `Quick test_svg_export_rejects_bad_side;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_place_valid ]);
    ]
