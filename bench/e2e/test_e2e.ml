(* Unit tests for the benchmark's own analysis code: span self-time
   attribution, the quartile rule the spread checks use, and the output
   checker. *)

open E2e_bench
module H = Hypart_hypergraph.Hypergraph
module TA = Trace_analysis

let span ?(rid = 7.) tid name ts dur =
  { TA.name; tid; ts_us = ts; dur_us = dur; args = [ ("request_id", rid) ] }

(* Domain 1 runs request 7: ml.run encloses a coarsening with one level
   span and a refinement with one FM pass.  Domain 2 runs request 8 at an
   overlapping time; its spans must never nest under domain 1's. *)
let trace =
  [
    span 1 "ml.run" 0. 100.;
    span 1 "ml.coarsen" 10. 30.;
    span 1 "ml.coarsen.level" 15. 10.;
    span 1 "ml.refine" 50. 40.;
    span 1 "fm.pass" 55. 20.;
    span ~rid:8. 2 "ml.run" 5. 50.;
    span ~rid:8. 2 "ml.refine" 5. 45.;
    span ~rid:8. 2 "ml.initial" 50. 5.;
  ]

let self_of rows name tid =
  match List.find_opt (fun r -> r.TA.span_name = name && r.TA.thread = tid) rows with
  | Some r -> r.TA.self_us
  | None -> Alcotest.failf "no row for %s on thread %d" name tid

let check_float msg expected actual = Alcotest.(check (float 1e-9)) msg expected actual

let test_self_times () =
  let rows = TA.self_times trace in
  List.iter
    (fun (name, tid, expected) -> check_float (Printf.sprintf "%s@%d" name tid) expected (self_of rows name tid))
    [
      ("ml.run", 1, 30.);
      ("ml.coarsen", 1, 20.);
      ("ml.coarsen.level", 1, 10.);
      ("ml.refine", 1, 20.);
      ("fm.pass", 1, 20.);
      ("ml.run", 2, 0.);
      ("ml.refine", 2, 45.);
      ("ml.initial", 2, 5.);
    ];
  check_float "self times of a thread sum to its root span" 100.
    (List.fold_left (fun acc r -> if r.TA.thread = 1 then acc +. r.TA.self_us else acc) 0. rows)

let test_keep_folds_children () =
  let keep n = n = "ml.run" || n = "ml.coarsen" || n = "ml.refine" || n = "ml.initial" in
  let rows = TA.self_times ~keep trace in
  check_float "level folded into coarsening" 30. (self_of rows "ml.coarsen" 1);
  check_float "FM pass folded into refinement" 40. (self_of rows "ml.refine" 1);
  check_float "refine summed over both threads" 85. (TA.self_us rows "ml.refine");
  Alcotest.(check bool) "dropped names have no rows" false
    (List.exists (fun r -> r.TA.span_name = "fm.pass") rows)

let test_for_requests () =
  let ids = Hashtbl.create 1 in
  Hashtbl.replace ids 8. ();
  let mine = TA.for_requests ids trace in
  Alcotest.(check int) "request 8 owns domain 2's three spans" 3 (List.length mine);
  Alcotest.(check bool) "all on domain 2" true (List.for_all (fun s -> s.TA.tid = 2) mine)

let test_chrome_json () =
  let text =
    {|{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"hypart"}},
      {"name":"ml.run","cat":"hypart","ph":"X","ts":1.5,"dur":10,"pid":1,"tid":3,"args":{"request_id":42,"cut":9}},
      {"name":"ml.refine","cat":"hypart","ph":"X","ts":2,"dur":4,"pid":1,"tid":3}],"displayTimeUnit":"ms"}|}
  in
  let spans = TA.of_chrome_json text in
  Alcotest.(check int) "complete events only" 2 (List.length spans);
  let run = List.hd spans in
  Alcotest.(check (option (float 0.))) "request id arg" (Some 42.) (TA.request_id run);
  check_float "self time from parsed spans" 6. (TA.self_us (TA.self_times spans) "ml.run")

(* Python: statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25],
   statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25] *)
let test_quartiles () =
  let q xs = Stats.quartiles xs in
  let triple = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9)) in
  Alcotest.check triple "ten samples" (2.75, 5.5, 8.25) (q (List.init 10 (fun i -> float_of_int (10 - i))));
  Alcotest.check triple "two samples" (0.75, 1.5, 2.25) (q [ 2.; 1. ]);
  check_float "nearest-rank p90 of ten" 9. (Stats.percentile (List.init 10 (fun i -> float_of_int (i + 1))) 90.)

(* a 4-cell path 0-1-2-3 with a heavy middle net *)
let test_checker () =
  let h =
    H.create ~vertex_weights:[| 1; 1; 1; 1 |] ~edge_weights:[| 1; 5; 1 |] ~num_vertices:4
      ~edges:[| [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |] |] ()
  in
  let sides = Bytes.of_string "0011" in
  Alcotest.(check (option string)) "correct answer" None
    (Checker.check_assignment h ~tolerance:0.1 ~cut:5 ~legal:true sides);
  Alcotest.(check bool) "wrong cut caught" true
    (Checker.check_assignment h ~tolerance:0.1 ~cut:1 ~legal:true sides <> None);
  Alcotest.(check bool) "wrong legality caught" true
    (Checker.check_assignment h ~tolerance:0.1 ~cut:0 ~legal:true (Bytes.of_string "0000") <> None);
  Alcotest.(check bool) "short assignment caught" true
    (Checker.check_assignment h ~tolerance:0.1 ~cut:5 ~legal:true (Bytes.of_string "001") <> None)

let () =
  Alcotest.run "e2e_bench"
    [
      ( "trace_analysis",
        [
          Alcotest.test_case "self time per name and thread" `Quick test_self_times;
          Alcotest.test_case "kept names absorb dropped children" `Quick test_keep_folds_children;
          Alcotest.test_case "spans by request id" `Quick test_for_requests;
          Alcotest.test_case "chrome trace parsing" `Quick test_chrome_json;
        ] );
      ("stats", [ Alcotest.test_case "quartiles match Python" `Quick test_quartiles ]);
      ("checker", [ Alcotest.test_case "recomputed cut and balance" `Quick test_checker ]);
    ]
