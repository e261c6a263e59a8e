module Machine = Hypart_engine.Machine
module Table = Hypart_lab.Table
module Campaigns = Hypart_harness.Campaigns
module Manifest = Hypart_lab.Manifest
module Report = Hypart_lab.Report

(* -- Machine -- *)

let test_cpu_time () =
  let r, dt = Machine.cpu_time (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 r;
  Alcotest.(check bool) "time nonnegative" true (dt >= 0.0)

(* A fixed integer workload that allocates nothing, so no collection
   ties its domain to another. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := ((!acc * 31) + i) land 0xFFFFFF
  done;
  Sys.opaque_identity !acc

(* the clock is per domain: another domain spinning meanwhile is not
   charged to the timed job (a process clock charges both) *)
let test_cpu_time_per_domain () =
  let n = 100_000_000 in
  let _, solo = Machine.cpu_time (fun () -> spin n) in
  let started = Atomic.make false and stop = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        Atomic.set started true;
        while not (Atomic.get stop) do
          ignore (spin 10_000)
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let _, contended = Machine.cpu_time (fun () -> spin n) in
  Atomic.set stop true;
  Domain.join other;
  if contended > 1.5 *. solo then
    Alcotest.failf "charged %.3fs while another domain spun, %.3fs alone" contended solo

(* a call timed around a fan-out is charged the CPU of the worker
   domains, not just the joining one *)
let test_cpu_time_fan_out () =
  let per_seed, total =
    Machine.cpu_time (fun () ->
        Hypart_engine.Parallel.map_seeds ~domains:2 ~seeds:[ 1; 2; 3; 4 ] (fun _ ->
            snd (Machine.cpu_time (fun () -> spin 20_000_000))))
  in
  let workers = List.fold_left ( +. ) 0.0 per_seed in
  if total < workers then
    Alcotest.failf "charged %.3fs around a fan-out whose workers spent %.3fs" total workers

let test_normalization () =
  Machine.set_normalization_factor 2.0;
  Alcotest.(check (float 1e-9)) "factor applied" 3.0 (Machine.normalize 1.5);
  Machine.set_normalization_factor 1.0;
  Alcotest.(check (float 1e-9)) "reset" 1.5 (Machine.normalize 1.5);
  Alcotest.check_raises "bad factor" (Invalid_argument "x") (fun () ->
      try Machine.set_normalization_factor 0.0
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* -- Table -- *)

let test_table_render () =
  let t = Table.make ~headers:[ "Algorithm"; "ibm01" ] in
  Table.add_row t [ "Our LIFO"; "333/639" ];
  Table.add_row t [ "Reported"; "450/2701" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 9 = "Algorithm");
  (* all data present *)
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and sl = String.length s in
        let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (needle ^ " present") true found)
    [ "333/639"; "450/2701"; "Our LIFO" ]

let test_table_width_mismatch () =
  let t = Table.make ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "width" (Invalid_argument "x") (fun () ->
      try Table.add_row t [ "only one" ]
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_table_csv () =
  let t = Table.make ~headers:[ "x"; "y" ] in
  Table.add_row t [ "1"; "has,comma" ];
  Table.add_span t "section";
  Table.add_separator t;
  Table.add_row t [ "2"; "plain" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv escaping and structure"
    "x,y\n1,\"has,comma\"\nsection\n2,plain\n" csv

(* -- Parallel -- *)

module Parallel = Hypart_engine.Parallel

let test_parallel_matches_sequential () =
  let seeds = [ 1; 5; 9; 13; 2; 7 ] in
  let f seed = seed * seed in
  Alcotest.(check (list int)) "same results in order" (List.map f seeds)
    (Parallel.map_seeds ~domains:3 ~seeds f)

let test_parallel_engine_runs () =
  (* real engine fan-out agrees with sequential execution *)
  let h = Hypart_generator.Ibm_suite.instance ~scale:64.0 "ibm01" in
  let p = Hypart_partition.Problem.make ~tolerance:0.10 h in
  let run seed =
    (Hypart_fm.Fm.run_random_start (Hypart_rng.Rng.create seed) p).Hypart_fm.Fm.cut
  in
  let seeds = [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "parallel = sequential" (List.map run seeds)
    (Parallel.map_seeds ~domains:2 ~seeds run)

let test_parallel_more_domains_than_seeds () =
  Alcotest.(check (list int)) "caps domains" [ 10 ]
    (Parallel.map_seeds ~domains:8 ~seeds:[ 5 ] (fun s -> 2 * s))

let test_parallel_invalid () =
  Alcotest.check_raises "bad domains" (Invalid_argument "x") (fun () ->
      try ignore (Parallel.map_seeds ~domains:0 ~seeds:[ 1 ] (fun s -> s))
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* -- Experiments (smoke tests at tiny scale) -- *)

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
  scan 0

(* a table as the CLI renders it: its experiments run into a fresh
   in-memory store *)
let run ?domains ?(seed = 1) experiments =
  fst (Campaigns.execute ?domains ~store:None (Manifest.make ~name:"test" ~seed ~experiments))

let table1 ?domains ~seed () =
  let e = Campaigns.table1 ~scale:64.0 ~runs:2 ~instances:[ "ibm01" ] () in
  Table.render (Campaigns.table1_table (run ?domains ~seed [ e ]) e)

let test_table1_smoke () =
  let s = table1 ~seed:1 () in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains s needle))
    [ "Flat LIFO FM"; "Flat CLIP FM"; "ML LIFO FM"; "ML CLIP FM";
      "Away"; "Part0"; "Toward"; "All-dg"; "Nonzero"; "ibm01" ]

let test_table23_smoke () =
  let es = Campaigns.table23 `Clip ~scale:64.0 ~runs:2 ~instances:[ "ibm01" ] in
  let s = Table.render (Campaigns.table23_table (run es) es) in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains s needle))
    [ "Reported CLIP"; "Our CLIP"; "02%"; "10%" ]

let test_table45_smoke () =
  let e =
    Campaigns.tables45 ~scale:64.0 ~repeats:1 ~configs:[ 1; 2 ] ~instances:[ "ibm01" ]
      ~tolerance:0.10
  in
  let s = Table.render (Report.cut_cpu_table ~timing:true (run [ e ]) e) in
  Alcotest.(check bool) "has starts columns" true (contains s "2 starts");
  Alcotest.(check bool) "has instance" true (contains s "ibm01")

let figures () =
  let e = Campaigns.figures ~scale:64.0 ~starts:3 ~instances:[ "ibm01" ] in
  (run [ e ], e)

let test_bsf_smoke () =
  let report, e = figures () in
  let t =
    Report.bsf_table ~label:Campaigns.figure_label ~budgets:[| 0.01; 1.0 |] report e
      ~instance:"ibm01"
  in
  let s = Table.render t in
  Alcotest.(check bool) "has heuristics" true (contains s "Flat LIFO FM")

let test_pareto_smoke () =
  let report, e = figures () in
  let t, frontier = Report.pareto ~label:Campaigns.figure_label report e ~instance:"ibm01" in
  let s = Table.render t in
  Alcotest.(check bool) "frontier nonempty" true (List.length frontier >= 1);
  Alcotest.(check bool) "table marks frontier" true (contains s "*")

(* the corking view reads moves and empty passes from the stored engine
   stats: the rows carry numbers, not the "-" of stat-less records *)
let test_corking_smoke () =
  let e = Campaigns.corking ~scale:16.0 ~runs:3 ~instance:"ibm01" in
  let t = Campaigns.corking_table (run [ e ]) e in
  let s = Table.render t in
  Alcotest.(check bool) "both variants shown" true
    (contains s "Reported CLIP (no fix)" && contains s "Our CLIP (corking fix)");
  let fields = String.split_on_char '\n' (Table.to_csv t) |> List.concat_map (String.split_on_char ',') in
  Alcotest.(check bool) "stats rendered" false (List.mem "-" fields)

let compare ~scale ~runs engine_a engine_b =
  let e = Campaigns.compare ~scale ~runs ~engine_a ~engine_b ~instance:"ibm01" () in
  Report.compare (run [ e ]) e ~instance:"ibm01"

let test_compare_engines () =
  (* reported vs strong: clearly significant at modest run counts *)
  let table, verdict = compare ~scale:16.0 ~runs:12 "reported" "flat" in
  let s = Table.render table in
  Alcotest.(check bool) "both rows present" true
    (contains s "reported" && contains s "flat");
  Alcotest.(check bool) "flat wins significantly" true
    (contains (Option.get verdict) "flat is significantly better");
  (* engine vs itself: never significant *)
  let _, same = compare ~scale:32.0 ~runs:10 "flat" "flat" in
  Alcotest.(check bool) "identical samples not significant" true
    (contains (Option.get same) "no significant difference")

let test_compare_unknown_engine () =
  Alcotest.check_raises "unknown engine" (Invalid_argument "x") (fun () ->
      try ignore (compare ~scale:64.0 ~runs:2 "bogus" "flat")
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let ablation () =
  let e = Campaigns.ablation ~scale:64.0 ~runs:2 ~instance:"ibm01" in
  Table.render (Campaigns.ablation_table (run [ e ]) e)

let test_ablation_smoke () =
  let s = ablation () in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains s needle))
    [ "insertion"; "illegal head"; "oversized cells"; "pass best";
      "initial solution"; "coarsening"; "refinement"; "cluster-grown";
      "first-choice" ]

(* boundary-only refinement under CLIP sits beside the LIFO pair *)
let test_ablation_clip_refinement () =
  let s = ablation () in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains s needle))
    [ "LIFO full"; "LIFO boundary-only"; "CLIP full"; "CLIP boundary-only" ]

let test_experiments_deterministic () =
  (* per-cell derived seeds: the same table however many domains ran it *)
  Alcotest.(check string) "same seed, same table" (table1 ~domains:1 ~seed:7 ())
    (table1 ~domains:2 ~seed:7 ())

let () =
  Alcotest.run "harness"
    [
      ( "machine",
        [
          Alcotest.test_case "cpu_time" `Quick test_cpu_time;
          Alcotest.test_case "cpu_time per domain" `Quick test_cpu_time_per_domain;
          Alcotest.test_case "cpu_time fan-out" `Quick test_cpu_time_fan_out;
          Alcotest.test_case "normalization" `Quick test_normalization;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "engine fan-out" `Quick test_parallel_engine_runs;
          Alcotest.test_case "domain cap" `Quick
            test_parallel_more_domains_than_seeds;
          Alcotest.test_case "invalid" `Quick test_parallel_invalid;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1" `Quick test_table1_smoke;
          Alcotest.test_case "tables 2/3" `Quick test_table23_smoke;
          Alcotest.test_case "tables 4/5" `Quick test_table45_smoke;
          Alcotest.test_case "bsf" `Quick test_bsf_smoke;
          Alcotest.test_case "pareto" `Quick test_pareto_smoke;
          Alcotest.test_case "corking" `Quick test_corking_smoke;
          Alcotest.test_case "ablation" `Quick test_ablation_smoke;
          Alcotest.test_case "ablation CLIP refinement" `Quick test_ablation_clip_refinement;
          Alcotest.test_case "compare engines" `Quick test_compare_engines;
          Alcotest.test_case "compare unknown engine" `Quick
            test_compare_unknown_engine;
          Alcotest.test_case "deterministic" `Quick test_experiments_deterministic;
        ] );
    ]
