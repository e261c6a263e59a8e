(* Tests for the engine layer: registry contents, every registered
   engine smoke-tested on a tiny instance, and the generic multistart
   combinators (sequential/parallel equivalence, tie-breaking,
   pruning). *)

module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Initial = Hypart_partition.Initial
module Engine = Hypart_engine.Engine
module Suite = Hypart_generator.Ibm_suite

let () = Hypart_engines.init ()

let tiny_problem ?(tolerance = 0.10) seed =
  let rng = Rng.create seed in
  let nv = 40 in
  let edges =
    Array.init 80 (fun _ ->
        Rng.sample_distinct rng ~n:(2 + Rng.int rng 3) ~universe:nv)
  in
  Problem.make ~tolerance (H.create ~num_vertices:nv ~edges ())

let ibm_problem ?(tolerance = 0.10) () =
  Problem.make ~tolerance (Suite.instance ~scale:16.0 "ibm01")

(* -- Registry -- *)

let expected_engines =
  [
    "clip";
    "eco_fm";
    "eco_ml";
    "flat";
    "hmetis";
    "kl";
    "lookahead";
    "memetic_ml";
    "ml";
    "mlclip";
    "reported";
    "reported-clip";
    "sa";
    "spectral";
  ]

let test_registry_populated () =
  let names = Engine.names () in
  Alcotest.(check bool) "at least 8 engines" true (List.length names >= 8);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s registered" n)
        true (List.mem n names))
    expected_engines;
  Alcotest.(check (list string)) "names sorted" (List.sort compare names) names;
  Alcotest.(check int)
    "all() agrees with names()"
    (List.length names)
    (List.length (Engine.all ()))

let test_register_rejects_duplicate () =
  let dup =
    Engine.make ~name:"flat" ~description:"imposter" (fun rng problem _ ->
        Engine.run (Engine.find_exn "flat") rng problem None)
  in
  Alcotest.check_raises "duplicate rejected" (Invalid_argument "x") (fun () ->
      try Engine.register dup
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_find_unknown () =
  Alcotest.(check bool) "find returns None" true (Engine.find "bogus" = None);
  let msg =
    try
      ignore (Engine.find_exn "bogus");
      ""
    with Invalid_argument m -> m
  in
  Alcotest.(check bool) "message non-empty" true (String.length msg > 0);
  (* the error must list every registered name so the CLI help writes
     itself *)
  List.iter
    (fun n ->
      let found =
        let ln = String.length n and lm = String.length msg in
        let rec scan i =
          i + ln <= lm && (String.sub msg i ln = n || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) (Printf.sprintf "lists %s" n) true found)
    expected_engines

(* -- Per-engine smoke: legality flag consistent, determinism -- *)

let smoke_one engine () =
  let name = Engine.name engine in
  let problem =
    (* KL is O(n^2)-ish and spectral needs a connected-enough graph;
       the tiny random instance covers both at this size. *)
    tiny_problem 7
  in
  let r = Engine.run engine (Rng.create 42) problem None in
  Alcotest.(check int)
    (name ^ ": cut matches solution")
    (Bipartition.cut problem.Problem.hypergraph r.Engine.Result.solution)
    r.Engine.Result.cut;
  Alcotest.(check bool)
    (name ^ ": legal flag consistent")
    (Bipartition.is_legal r.Engine.Result.solution problem.Problem.balance)
    r.Engine.Result.legal;
  let r2 = Engine.run engine (Rng.create 42) problem None in
  Alcotest.(check int) (name ^ ": same seed, same cut") r.Engine.Result.cut
    r2.Engine.Result.cut;
  (* engines that enforce balance must produce a legal solution here *)
  if name <> "spectral" then
    Alcotest.(check bool) (name ^ ": legal") true r.Engine.Result.legal

let smoke_tests () =
  List.map
    (fun e ->
      Alcotest.test_case
        (Printf.sprintf "smoke %s" (Engine.name e))
        `Quick (smoke_one e))
    (Engine.all ())

(* -- Combinators -- *)

let test_multistart_improves () =
  let problem = ibm_problem () in
  let engine = Engine.find_exn "flat" in
  let best, records = Engine.multistart engine (Rng.create 3) problem ~starts:4 in
  Alcotest.(check int) "4 records" 4 (List.length records);
  List.iter
    (fun r ->
      Alcotest.(check bool) "best <= every start" true
        (best.Engine.Result.cut <= r.Engine.start_cut);
      Alcotest.(check bool) "time recorded" true (r.Engine.start_seconds >= 0.0))
    records

let test_multistart_zero_starts () =
  let problem = tiny_problem 1 in
  let engine = Engine.find_exn "flat" in
  Alcotest.check_raises "zero starts" (Invalid_argument "x") (fun () ->
      try ignore (Engine.multistart engine (Rng.create 1) problem ~starts:0)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* the seeded multistart on the calling domain and fanned out over
   [domains] domains agree on the winner and on every per-seed cut *)
let check_domains_agree ~domains seeds =
  let problem = ibm_problem () in
  let engine = Engine.find_exn "mlclip" in
  let (seq_seed, seq_best), seq_records =
    Engine.multistart_seeds engine problem ~seeds
  in
  let (par_seed, par_best), par_records =
    Engine.multistart_seeds ~domains engine problem ~seeds
  in
  Alcotest.(check int) "same winning seed" seq_seed par_seed;
  Alcotest.(check int) "same winning cut" seq_best.Engine.Result.cut
    par_best.Engine.Result.cut;
  Alcotest.(check (list int))
    "same per-seed cuts"
    (List.map (fun r -> r.Engine.start_cut) seq_records)
    (List.map (fun r -> r.Engine.start_cut) par_records)

let test_parallel_matches_sequential () =
  check_domains_agree ~domains:3 [ 11; 5; 23; 2 ]

(* degenerate sharding still matches the calling-domain run: more
   domains than jobs (some domains get an empty block) and exactly one
   domain *)
let test_parallel_more_domains_than_jobs () =
  check_domains_agree ~domains:8 [ 11; 5; 23 ]

let test_parallel_single_domain () =
  check_domains_agree ~domains:1 [ 11; 5; 23; 2 ]

let test_seeded_tie_break_lowest_seed () =
  (* a constant engine: every seed produces the same solution, so the
     winner must be the numerically lowest seed regardless of order *)
  let problem = tiny_problem 5 in
  let fixed_solution = Initial.random (Rng.create 99) problem in
  let constant =
    Engine.make ~name:"const-test" ~description:"constant result"
      (fun _rng problem _initial ->
        let solution = Bipartition.copy fixed_solution in
        {
          Engine.Result.solution;
          cut = Bipartition.cut problem.Problem.hypergraph solution;
          legal = Bipartition.is_legal solution problem.Problem.balance;
          stats = [];
        })
  in
  let (seed, _), _ =
    Engine.multistart_seeds constant problem ~seeds:[ 9; 4; 17; 6 ]
  in
  Alcotest.(check int) "lowest seed wins ties (sequential)" 4 seed;
  let (pseed, _), _ =
    Engine.multistart_seeds ~domains:2 constant problem
      ~seeds:[ 9; 4; 17; 6 ]
  in
  Alcotest.(check int) "lowest seed wins ties (parallel)" 4 pseed

let test_seeded_empty_seeds () =
  let problem = tiny_problem 1 in
  let engine = Engine.find_exn "flat" in
  Alcotest.check_raises "empty seeds" (Invalid_argument "x") (fun () ->
      try ignore (Engine.multistart_seeds engine problem ~seeds:[])
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_polish_best_applied () =
  let problem = ibm_problem () in
  let engine = Engine.find_exn "ml" in
  let polished = ref false in
  let polish r =
    polished := true;
    Hypart_multilevel.Ml_engines.vcycle_polish (Rng.create 100) problem r
  in
  let best, _ = Engine.multistart ~polish_best:polish engine (Rng.create 5)
      problem ~starts:2
  in
  Alcotest.(check bool) "polish ran" true !polished;
  Alcotest.(check bool) "result still legal" true best.Engine.Result.legal

(* [hmetis] is its [hmetis_like] start plus one V-cycle under the same
   configuration, at the balance [hypart partition] defaults to.  The
   expected cuts, assignment digests and stats were recorded from the
   engine's earlier wrapper form and pin it bit for bit; the V-cycle
   never makes the start worse. *)
let hmetis_expected =
  [
    ( 1,
      "147:50a7ddcaee5e2739d0ef60a64a3422cb:passes=75,moves=8645,empty_passes=0,corking_events=4402,zero_delta_updates=37126"
    );
    ( 2,
      "146:905be80786a55fd07165538e78910a2b:passes=59,moves=8378,empty_passes=1,corking_events=3990,zero_delta_updates=31373"
    );
    ( 3,
      "144:af1b02177cc1496713dbe89cd27d901b:passes=58,moves=8121,empty_passes=0,corking_events=3681,zero_delta_updates=30686"
    );
  ]

let hmetis_digest (r : Engine.Result.t) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun x -> Buffer.add_string b (string_of_int x ^ ","))
    (Bipartition.assignment r.Engine.Result.solution);
  Printf.sprintf "%d:%s:%s" r.Engine.Result.cut
    (Digest.to_hex (Digest.string (Buffer.contents b)))
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%g" k v)
          r.Engine.Result.stats))

let test_hmetis_pinned () =
  let problem = ibm_problem ~tolerance:0.02 () in
  let hmetis = Engine.find_exn "hmetis" in
  List.iter
    (fun (seed, expected) ->
      let r = Engine.run hmetis (Rng.create seed) problem None in
      Alcotest.(check string)
        (Printf.sprintf "seed %d bit-identical" seed)
        expected (hmetis_digest r);
      let start =
        Hypart_multilevel.Ml_partitioner.run
          ~config:Hypart_multilevel.Ml_partitioner.hmetis_like
          (Rng.create seed) problem
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d never worse than its start" seed)
        true
        (r.Engine.Result.legal
        && r.Engine.Result.cut <= start.Hypart_fm.Fm.cut))
    hmetis_expected

let test_result_better_legality_first () =
  let problem = tiny_problem 2 in
  let sol = Initial.random (Rng.create 1) problem in
  let mk cut legal =
    { Engine.Result.solution = sol; cut; legal; stats = [] }
  in
  Alcotest.(check bool) "legal beats illegal even at higher cut" true
    (Engine.Result.better (mk 50 true) (mk 10 false));
  Alcotest.(check bool) "illegal never beats legal" false
    (Engine.Result.better (mk 10 false) (mk 50 true));
  Alcotest.(check bool) "same legality: lower cut" true
    (Engine.Result.better (mk 10 true) (mk 20 true));
  Alcotest.(check bool) "stat lookup" true
    (Engine.Result.stat (mk 1 true) "passes" = None)

let () =
  Alcotest.run "engine"
    [
      ( "registry",
        [
          Alcotest.test_case "populated" `Quick test_registry_populated;
          Alcotest.test_case "duplicate rejected" `Quick
            test_register_rejects_duplicate;
          Alcotest.test_case "unknown name" `Quick test_find_unknown;
        ] );
      ("smoke", smoke_tests ());
      ( "combinators",
        [
          Alcotest.test_case "multistart best-of" `Quick
            test_multistart_improves;
          Alcotest.test_case "multistart zero starts" `Quick
            test_multistart_zero_starts;
          Alcotest.test_case "parallel: domains > jobs" `Quick
            test_parallel_more_domains_than_jobs;
          Alcotest.test_case "parallel: one domain" `Quick
            test_parallel_single_domain;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "tie-break lowest seed" `Quick
            test_seeded_tie_break_lowest_seed;
          Alcotest.test_case "empty seeds" `Quick test_seeded_empty_seeds;
          Alcotest.test_case "polish_best applied" `Quick
            test_polish_best_applied;
          Alcotest.test_case "hmetis = start + V-cycle" `Quick
            test_hmetis_pinned;
          Alcotest.test_case "Result.better" `Quick
            test_result_better_legality_first;
        ] );
    ]
