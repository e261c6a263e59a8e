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

(* The stats each engine reports, by name and in order, on the smoke
   instance: these names are the run store's [stat.*] columns. *)
let fm_stat_names =
  [ "passes"; "moves"; "empty_passes"; "corking_events"; "zero_delta_updates" ]

let expected_stat_names =
  [
    ("clip", fm_stat_names);
    ("eco_fm", fm_stat_names);
    ("eco_ml", fm_stat_names);
    ("flat", fm_stat_names);
    ("hmetis", fm_stat_names);
    ("kl", [ "passes"; "swaps" ]);
    ("lookahead", [ "passes"; "moves" ]);
    ("memetic_ml", [ "generations"; "evaluations" ]);
    ("ml", fm_stat_names);
    ("mlclip", fm_stat_names);
    ("reported", fm_stat_names);
    ("reported-clip", fm_stat_names);
    ("sa", [ "accepted"; "attempted" ]);
    ("spectral", [ "ratio_cut"; "iterations" ]);
  ]

let test_stat_names () =
  let problem = tiny_problem 7 in
  Alcotest.(check (list string))
    "every engine has expected names" (Engine.names ())
    (List.map fst expected_stat_names);
  List.iter
    (fun (name, expected) ->
      let r = Engine.run (Engine.find_exn name) (Rng.create 42) problem None in
      Alcotest.(check (list string))
        (name ^ " stat names")
        expected
        (List.map fst r.Engine.Result.stats))
    expected_stat_names

(* Every engine stops at its first safe point once the cancel hook
   fires, [memetic_ml] included: its generations fan out through
   [Parallel.map_seeds], whose workers run under the caller's hook. *)
let test_cancel_every_engine () =
  let problem = tiny_problem 7 in
  (* a hook that always fires, and one that fires from its second poll
     on: the second proves a safe point inside the run, past its entry *)
  let hooks =
    [
      ("at once", fun () -> fun () -> true);
      ( "from the second poll",
        fun () ->
          let polls = Atomic.make 0 in
          fun () -> Atomic.fetch_and_add polls 1 >= 1 );
    ]
  in
  List.iter
    (fun (when_, hook) ->
      List.iter
        (fun engine ->
          let name = Engine.name engine in
          let cancelled =
            match
              Hypart_engine.Cancel.with_hook (hook ())
                (fun () -> Engine.run engine (Rng.create 42) problem None)
            with
            | _ -> false
            | exception Hypart_engine.Cancel.Cancelled -> true
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s raises Cancelled (%s)" name when_)
            true cancelled)
        (Engine.all ()))
    hooks

(* KL polls inside a pass, not only between passes: one pair selection
   is O(n^2) clique lookups, minutes per pass on a 53k-cell twin *)
let test_kl_polls_inside_pass () =
  let polls = ref 0 in
  let r =
    Hypart_engine.Cancel.with_hook
      (fun () ->
        incr polls;
        false)
      (fun () ->
        Engine.run (Engine.find_exn "kl") (Rng.create 42) (tiny_problem 7) None)
  in
  let passes = int_of_float (Option.get (Engine.Result.stat r "passes")) in
  Alcotest.(check bool)
    (Printf.sprintf "%d polls > %d passes" !polls passes)
    true (!polls > passes)

(* Every 2-way engine either keeps each fixed vertex on its side or
   says its result is illegal; KL, which swaps only free pairs, keeps
   them all.  Every tenth vertex of the scale-64 ibm01 twin is fixed,
   alternating sides. *)
let test_fixed_vertices_kept_or_reported () =
  let h = Suite.instance ~scale:64.0 "ibm01" in
  let fixed =
    Array.init (H.num_vertices h) (fun v -> if v mod 10 = 0 then v / 10 mod 2 else -1)
  in
  let problem = Problem.make ~fixed ~tolerance:0.10 h in
  List.iter
    (fun engine ->
      let name = Engine.name engine in
      let r = Engine.run engine (Rng.create 1) problem None in
      let off = ref 0 in
      Array.iteri
        (fun v f ->
          if f >= 0 && Bipartition.side r.Engine.Result.solution v <> f then incr off)
        fixed;
      if name = "kl" then Alcotest.(check int) "kl: fixed vertices off side" 0 !off;
      if !off > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d fixed off side, so illegal" name !off)
          false r.Engine.Result.legal)
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
   [domains] domains agree on the winner and on every per-start cut *)
let check_domains_agree ~domains ~starts =
  let problem = ibm_problem () in
  let engine = Engine.find_exn "mlclip" in
  let seq_best, seq_records =
    Engine.multistart_seeds engine problem ~seed:11 ~starts
  in
  let par_best, par_records =
    Engine.multistart_seeds ~domains engine problem ~seed:11 ~starts
  in
  Alcotest.(check int) "same winning cut" seq_best.Engine.Result.cut
    par_best.Engine.Result.cut;
  Alcotest.(check bool)
    "same winning solution" true
    (Bipartition.equal seq_best.Engine.Result.solution
       par_best.Engine.Result.solution);
  Alcotest.(check (list int))
    "same per-start cuts"
    (List.map (fun r -> r.Engine.start_cut) seq_records)
    (List.map (fun r -> r.Engine.start_cut) par_records)

let test_parallel_matches_sequential () =
  check_domains_agree ~domains:3 ~starts:4

(* degenerate sharding still matches the calling-domain run: more
   domains than starts (some domains claim nothing) and exactly one
   domain *)
let test_parallel_more_domains_than_jobs () =
  check_domains_agree ~domains:8 ~starts:3

let test_parallel_single_domain () = check_domains_agree ~domains:1 ~starts:4

let test_seeded_tie_break_lowest_seed () =
  (* every start ties on the cut, each with its own solution: the
     winner must be the first start's, at any domain count *)
  let problem = tiny_problem 5 in
  let solution rng = Initial.random rng problem in
  let constant =
    Engine.make ~name:"const-test" ~description:"constant cut"
      (fun rng _problem _initial ->
        {
          Engine.Result.solution = solution rng;
          cut = 7;
          legal = true;
          stats = [];
        })
  in
  let first = solution (Rng.create 4) in
  Alcotest.(check bool)
    "the starts' solutions differ" false
    (Bipartition.equal first (solution (Rng.create 7)));
  let best, _ = Engine.multistart_seeds constant problem ~seed:4 ~starts:4 in
  Alcotest.(check bool)
    "first start wins ties (sequential)" true
    (Bipartition.equal first best.Engine.Result.solution);
  let pbest, _ =
    Engine.multistart_seeds ~domains:2 constant problem ~seed:4 ~starts:4
  in
  Alcotest.(check bool)
    "first start wins ties (parallel)" true
    (Bipartition.equal first pbest.Engine.Result.solution)

let test_seeded_empty_seeds () =
  let problem = tiny_problem 1 in
  let engine = Engine.find_exn "flat" in
  Alcotest.check_raises "zero starts" (Invalid_argument "x") (fun () ->
      try ignore (Engine.multistart_seeds engine problem ~seed:1 ~starts:0)
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
        && r.Engine.Result.cut <= start.Engine.Result.cut))
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

(* summed by name, in the first list's order *)
let test_result_add_stats () =
  Alcotest.(check (list (pair string (float 0.))))
    "sum" [ ("passes", 5.); ("moves", 12.) ]
    (Engine.Result.add_stats
       [ ("passes", 2.); ("moves", 10.) ]
       [ ("moves", 2.); ("passes", 3.) ])

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
      ( "contract",
        [
          Alcotest.test_case "stat names" `Quick test_stat_names;
          Alcotest.test_case "cancel every engine" `Quick
            test_cancel_every_engine;
          Alcotest.test_case "kl polls inside a pass" `Quick
            test_kl_polls_inside_pass;
          Alcotest.test_case "fixed vertices kept or reported" `Quick
            test_fixed_vertices_kept_or_reported;
        ] );
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
          Alcotest.test_case "Result.add_stats" `Quick test_result_add_stats;
        ] );
    ]
