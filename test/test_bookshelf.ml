module H = Hypart_hypergraph.Hypergraph
module B = Hypart_hypergraph.Bookshelf

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let sample () =
  H.create ~num_vertices:5
    ~vertex_weights:[| 3; 1; 4; 1; 5 |]
    ~edges:[| [| 0; 1; 2 |]; [| 1; 3 |]; [| 2; 3; 4 |]; [| 0; 4 |] |]
    ()

let test_roundtrip () =
  let h = sample () in
  let basename = tmp "hypart_bs" in
  B.write ~num_pads:2 ~basename h;
  let h', pads = B.read ~basename in
  Alcotest.(check int) "pads" 2 pads;
  Alcotest.(check int) "vertices" 5 (H.num_vertices h');
  Alcotest.(check int) "nets" 4 (H.num_edges h');
  for e = 0 to 3 do
    Alcotest.(check (array int)) "pins" (Incidence.pins h e) (Incidence.pins h' e)
  done;
  for v = 0 to 4 do
    Alcotest.(check int) "area from width" (H.vertex_weight h v)
      (H.vertex_weight h' v)
  done

let test_terminal_marking () =
  let h = sample () in
  let basename = tmp "hypart_bs_t" in
  B.write ~num_pads:1 ~basename h;
  let ic = open_in (basename ^ ".nodes") in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let contains needle =
    let nl = String.length needle and sl = String.length contents in
    let rec scan i = i + nl <= sl && (String.sub contents i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "terminal keyword present" true (contains "terminal");
  Alcotest.(check bool) "pad named p0" true (contains "p0");
  Alcotest.(check bool) "counts present" true (contains "NumTerminals : 1")

let test_malformed () =
  let write name content =
    let path = tmp name in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  let base = tmp "hypart_bs_bad" in
  let _ = write "hypart_bs_bad.nodes" "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n  a0 1 1\n" in
  let _ = write "hypart_bs_bad.nets" "UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n" in
  Alcotest.check_raises "node count mismatch" (Failure "parse") (fun () ->
      try ignore (B.read ~basename:base)
      with B.Parse_error _ -> raise (Failure "parse"));
  let _ =
    write "hypart_bs_bad2.nodes"
      "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n  a0 1 1\n"
  in
  let _ =
    write "hypart_bs_bad2.nets"
      "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\nNetDegree : 2  n0\n  a0 B\n  a0 B\n"
  in
  Alcotest.check_raises "pin count mismatch" (Failure "parse") (fun () ->
      try ignore (B.read ~basename:(tmp "hypart_bs_bad2"))
      with B.Parse_error _ -> raise (Failure "parse"))

let test_pl_roundtrip () =
  let basename = tmp "hypart_bs_pl" in
  let x = [| 1.5; 2.25; 0.0 |] and y = [| 10.0; 0.5; 3.75 |] in
  B.write_pl ~basename ~x ~y;
  let x', y' = B.read_pl (basename ^ ".pl") ~num_vertices:3 in
  for v = 0 to 2 do
    Alcotest.(check (float 1e-3)) "x" x.(v) x'.(v);
    Alcotest.(check (float 1e-3)) "y" y.(v) y'.(v)
  done

let test_pl_from_placement () =
  (* export a real placement and read it back *)
  let h = Hypart_generator.Ibm_suite.instance ~scale:64.0 "ibm01" in
  let pl = Hypart_placement.Topdown.place (Hypart_rng.Rng.create 1) h in
  let basename = tmp "hypart_bs_place" in
  B.write_pl ~basename ~x:pl.Hypart_placement.Topdown.x
    ~y:pl.Hypart_placement.Topdown.y;
  let x, _ = B.read_pl (basename ^ ".pl") ~num_vertices:(H.num_vertices h) in
  Alcotest.(check int) "all cells present" (H.num_vertices h) (Array.length x)

let () =
  Alcotest.run "bookshelf"
    [
      ( "bookshelf",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "terminal marking" `Quick test_terminal_marking;
          Alcotest.test_case "malformed" `Quick test_malformed;
          Alcotest.test_case "pl roundtrip" `Quick test_pl_roundtrip;
          Alcotest.test_case "pl from placement" `Quick test_pl_from_placement;
        ] );
    ]
