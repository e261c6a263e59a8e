(* The memetic campaign subsystem: population replacement, the
   persistent population log, cut-respecting recombination, executor
   equivalence, and the crash-safe resume contract. *)

module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Ml = Hypart_multilevel.Ml_partitioner
module Fm = Hypart_fm.Fm
module Suite = Hypart_generator.Ibm_suite
module Engine = Hypart_engine.Engine
module Population = Hypart_evolve.Population
module Pop_log = Hypart_evolve.Pop_log
module Executor = Hypart_evolve.Executor
module Evolve = Hypart_evolve.Evolve

let () = Hypart_engines.init ()
let problem = lazy (Problem.make ~tolerance:0.02 (Suite.instance ~scale:32.0 "ibm01"))

let temp_dir prefix =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  dir

(* a tiny hypergraph whose bipartitions we can spell out by hand *)
let tiny =
  lazy
    (H.create ~num_vertices:8
       ~edges:(Array.init 8 (fun i -> [| i; (i + 1) mod 8 |]))
       ())

let solution sides = Bipartition.make (Lazy.force tiny) (Array.copy sides)

(* admit a generation-0 seed candidate with these sides *)
let admit pop ?(legal = true) i sides cut =
  Population.insert pop
    {
      Pop_log.gen = 0;
      slot = i;
      kind = "seed";
      seed = i;
      cut;
      legal;
      seconds = 0.;
      assignment = sides;
    }
    (solution sides)

(* -- Population -- *)

let test_population_eviction_deterministic () =
  let run () =
    let pop = Population.create ~capacity:3 in
    let admit = admit pop in
    (* members 0 and 3 are near-clones (7/8 agreement); every other
       pair agrees on at most 6/8.  Admitting the fourth member pushes
       the pool over capacity, and the worse of the clone pair goes *)
    ignore (admit 0 [| 0; 0; 0; 0; 1; 1; 1; 1 |] 10);
    ignore (admit 1 [| 0; 0; 1; 1; 1; 1; 1; 1 |] 12);
    ignore (admit 2 [| 0; 1; 0; 1; 0; 1; 0; 1 |] 11);
    let _, evicted = admit 3 [| 0; 0; 0; 0; 1; 1; 1; 0 |] 9 in
    (pop, evicted)
  in
  let pop, evicted = run () in
  (match evicted with
  | None -> Alcotest.fail "over capacity: someone must be evicted"
  | Some m ->
    (* the worse of the clone pair by cut is member 0 (cut 10 vs 9) *)
    Alcotest.(check int) "evicts worse of most-similar pair" 0 m.Population.id);
  Alcotest.(check int) "size at capacity" 3 (Population.size pop);
  (match Population.best pop with
  | Some b ->
    Alcotest.(check int) "best is the cut-9 member" 9 b.Population.candidate.cut
  | None -> Alcotest.fail "population non-empty");
  (* replaying the same admissions reconstructs the same pool *)
  let pop2, _ = run () in
  Alcotest.(check (list int))
    "replay reconstructs identical ids"
    (List.map (fun m -> m.Population.id) (Population.members pop))
    (List.map (fun m -> m.Population.id) (Population.members pop2))

let test_population_legality_first () =
  let pop = Population.create ~capacity:2 in
  let admit = admit pop in
  ignore (admit ~legal:false 0 [| 0; 0; 0; 0; 1; 1; 1; 1 |] 50);
  ignore (admit 1 [| 0; 1; 0; 1; 0; 1; 0; 1 |] 90);
  (* a clone of the illegal member: the illegal one goes, even though
     its cut is lower *)
  let _, evicted = admit 2 [| 0; 0; 0; 0; 1; 1; 1; 0 |] 60 in
  match evicted with
  | Some m ->
    Alcotest.(check bool)
      "illegal member evicted" false m.Population.candidate.legal
  | None -> Alcotest.fail "expected an eviction"

(* -- Pop_log -- *)

let entry gen slot cut =
  {
    Pop_log.gen;
    slot;
    kind = "seed";
    seed = 100 + slot;
    cut;
    legal = true;
    seconds = 0.25;
    assignment = Array.init 8 (fun v -> (v + slot) mod 2);
  }

(* an entry appended, then replayed from its line by a reopen *)
let test_pop_log_line_roundtrip () =
  let e = entry 3 1 42 in
  let dir = temp_dir "hypart_poplog_line" in
  let log = Pop_log.open_log ~dir ~campaign:"cafe0123" in
  Pop_log.append log e;
  Pop_log.close log;
  let log = Pop_log.open_log ~dir ~campaign:"cafe0123" in
  let replayed = Pop_log.find log ~gen:3 ~slot:1 in
  Pop_log.close log;
  match replayed with
  | None -> Alcotest.fail "round trip failed"
  | Some e' ->
    Alcotest.(check int) "gen" e.Pop_log.gen e'.Pop_log.gen;
    Alcotest.(check int) "slot" e.Pop_log.slot e'.Pop_log.slot;
    Alcotest.(check string) "kind" e.Pop_log.kind e'.Pop_log.kind;
    Alcotest.(check int) "cut" e.Pop_log.cut e'.Pop_log.cut;
    Alcotest.(check bool) "legal" e.Pop_log.legal e'.Pop_log.legal;
    Alcotest.(check (array int))
      "assignment" e.Pop_log.assignment e'.Pop_log.assignment

let test_pop_log_reopen_and_truncate () =
  let dir = temp_dir "hypart_poplog" in
  let log = Pop_log.open_log ~dir ~campaign:"cafe0123" in
  Pop_log.append log (entry 0 0 10);
  Pop_log.append log (entry 0 1 11);
  Pop_log.append log (entry 1 0 9);
  Pop_log.close log;
  let log = Pop_log.open_log ~dir ~campaign:"cafe0123" in
  Alcotest.(check int) "all entries replayed" 3 (Pop_log.entries log);
  (match Pop_log.find log ~gen:1 ~slot:0 with
  | Some e -> Alcotest.(check int) "entry content survives" 9 e.Pop_log.cut
  | None -> Alcotest.fail "indexed entry missing");
  Pop_log.close log;
  (* crash mid-write: chop the file mid final line *)
  let path = Pop_log.filename dir in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  close_in ic;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (len - 15);
  Unix.close fd;
  let log = Pop_log.open_log ~dir ~campaign:"cafe0123" in
  Alcotest.(check int) "truncated tail dropped" 2 (Pop_log.entries log);
  Alcotest.(check bool)
    "lost coordinates absent" true
    (Pop_log.find log ~gen:1 ~slot:0 = None);
  (* the repaired log must accept fresh appends at the lost slot *)
  Pop_log.append log (entry 1 0 9);
  Pop_log.close log;
  let log = Pop_log.open_log ~dir ~campaign:"cafe0123" in
  Alcotest.(check int) "repaired log replays fully" 3 (Pop_log.entries log);
  Pop_log.close log

let test_pop_log_campaign_mismatch () =
  let dir = temp_dir "hypart_poplog_mismatch" in
  let log = Pop_log.open_log ~dir ~campaign:"cafe0123" in
  Pop_log.close log;
  Alcotest.check_raises "different campaign refused"
    (Pop_log.Mismatch { expected = "beef4567"; found = "cafe0123" })
    (fun () -> ignore (Pop_log.open_log ~dir ~campaign:"beef4567"))

(* -- recombination -- *)

let test_recombine_never_worse () =
  let p = Lazy.force problem in
  let a = Ml.run (Rng.create 21) p in
  let b = Ml.run (Rng.create 22) p in
  let child = Ml.recombine (Rng.create 23) p a.Engine.Result.solution b.Engine.Result.solution in
  let better_cut = min a.Engine.Result.cut b.Engine.Result.cut in
  Alcotest.(check bool) "child legal" true child.Engine.Result.legal;
  Alcotest.(check bool)
    (Printf.sprintf "child cut %d <= better parent %d" child.Engine.Result.cut better_cut)
    true (child.Engine.Result.cut <= better_cut);
  Alcotest.(check int) "child cut consistent" child.Engine.Result.cut
    (Bipartition.cut p.Problem.hypergraph child.Engine.Result.solution)

let test_recombine_deterministic () =
  let p = Lazy.force problem in
  let a = Ml.run (Rng.create 21) p in
  let b = Ml.run (Rng.create 22) p in
  let c1 = Ml.recombine (Rng.create 5) p a.Engine.Result.solution b.Engine.Result.solution in
  let c2 = Ml.recombine (Rng.create 5) p a.Engine.Result.solution b.Engine.Result.solution in
  Alcotest.(check int) "same seed, same child cut" c1.Engine.Result.cut c2.Engine.Result.cut;
  Alcotest.(check bool)
    "same seed, same assignment" true
    (Bipartition.equal c1.Engine.Result.solution c2.Engine.Result.solution)

(* -- campaigns -- *)

let small_config =
  {
    Evolve.default with
    Evolve.population = 5;
    generations = 3;
    recombinations = 2;
    immigrants = 1;
  }

let test_campaign_bit_identical_across_domains () =
  let p = Lazy.force problem in
  let t domains =
    Evolve.trajectory
      (Evolve.run { small_config with Evolve.domains = Some domains } ~seed:77
         p)
  in
  let t1 = t 1 in
  Alcotest.(check string) "domains 1 = domains 3" t1 (t 3);
  Alcotest.(check string) "domains 1 = domains 8" t1 (t 8)

let test_campaign_bit_identical_across_executors () =
  let p = Lazy.force problem in
  (* a custom executor with the reference per-job semantics but its own
     scheduling (sequential, reversed completion) must not change the
     trajectory *)
  let custom =
    Executor.of_fun ~name:"custom" (fun problem jobs ->
        List.rev_map
          (fun j -> Ok (Executor.run_local problem j))
          (List.rev jobs))
  in
  let t executor = Evolve.trajectory (Evolve.run ~executor small_config ~seed:77 p) in
  Alcotest.(check string)
    "in-process = custom executor"
    (t (Executor.in_process ()))
    (t custom)

(* an engine whose evaluation count we can observe: mlclip plus a
   counter, registered once for the whole binary *)
let counted_evals = Atomic.make 0

let () =
  Engine.register
    (Engine.make ~name:"counted_mlclip" ~description:"test: counting mlclip"
       (fun rng problem initial ->
         Atomic.incr counted_evals;
         Engine.run (Engine.find_exn "mlclip") rng problem initial))

let counted_config = { small_config with Evolve.base_engine = "counted_mlclip" }

let test_campaign_resume_zero_evaluations () =
  let p = Lazy.force problem in
  let dir = temp_dir "hypart_evolve_resume" in
  let o1 = Evolve.run ~store:dir counted_config ~seed:31 p in
  Alcotest.(check bool) "first run evaluates" true (o1.Evolve.evaluated > 0);
  Alcotest.(check int) "first run replays nothing" 0 o1.Evolve.replayed;
  let before = Atomic.get counted_evals in
  let o2 = Evolve.run ~store:dir counted_config ~seed:31 p in
  Alcotest.(check int)
    "resume runs the base engine zero times" before (Atomic.get counted_evals);
  Alcotest.(check int) "resume evaluates nothing" 0 o2.Evolve.evaluated;
  Alcotest.(check int)
    "resume replays everything" o1.Evolve.evaluated o2.Evolve.replayed;
  Alcotest.(check string)
    "resumed trajectory byte-identical" (Evolve.trajectory o1)
    (Evolve.trajectory o2)

let test_campaign_resume_truncated_store () =
  let p = Lazy.force problem in
  let dir = temp_dir "hypart_evolve_trunc" in
  let o1 = Evolve.run ~store:dir counted_config ~seed:32 p in
  (* lose the last candidate, as a crash mid-append would *)
  let path = Pop_log.filename dir in
  let lines =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let kept = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) kept;
  close_out oc;
  let o2 = Evolve.run ~store:dir counted_config ~seed:32 p in
  Alcotest.(check int) "exactly the lost candidate recomputed" 1
    o2.Evolve.evaluated;
  Alcotest.(check string)
    "trajectory unchanged by the crash" (Evolve.trajectory o1)
    (Evolve.trajectory o2)

let test_campaign_store_mismatch () =
  let p = Lazy.force problem in
  let dir = temp_dir "hypart_evolve_mismatch" in
  ignore (Evolve.run ~store:dir counted_config ~seed:33 p);
  match Evolve.run ~store:dir counted_config ~seed:34 p with
  | exception Pop_log.Mismatch _ -> ()
  | _ -> Alcotest.fail "resuming another campaign's store must raise"

let test_campaign_beats_seeding_generation () =
  let p = Lazy.force problem in
  let o = Evolve.run small_config ~seed:55 p in
  let history = Array.of_list o.Evolve.history in
  Alcotest.(check int)
    "one generation record per generation"
    (small_config.Evolve.generations + 1)
    (Array.length history);
  let gen0 = history.(0) in
  let last = history.(Array.length history - 1) in
  Alcotest.(check bool) "final best legal" true last.Evolve.g_best_legal;
  Alcotest.(check bool)
    "search never regresses" true
    (last.Evolve.g_best_cut <= gen0.Evolve.g_best_cut);
  let best = o.Evolve.best.Population.candidate in
  Alcotest.(check bool) "best member legal" true best.legal;
  Alcotest.(check int)
    "best matches final generation" last.Evolve.g_best_cut best.cut

let () =
  Alcotest.run "evolve"
    [
      ( "population",
        [
          Alcotest.test_case "diversity eviction deterministic" `Quick
            test_population_eviction_deterministic;
          Alcotest.test_case "legality first" `Quick
            test_population_legality_first;
        ] );
      ( "pop_log",
        [
          Alcotest.test_case "line round trip" `Quick
            test_pop_log_line_roundtrip;
          Alcotest.test_case "reopen and truncated tail" `Quick
            test_pop_log_reopen_and_truncate;
          Alcotest.test_case "campaign mismatch" `Quick
            test_pop_log_campaign_mismatch;
        ] );
      ( "recombine",
        [
          Alcotest.test_case "never worse than parents" `Quick
            test_recombine_never_worse;
          Alcotest.test_case "deterministic" `Quick test_recombine_deterministic;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "bit-identical across domains" `Quick
            test_campaign_bit_identical_across_domains;
          Alcotest.test_case "bit-identical across executors" `Quick
            test_campaign_bit_identical_across_executors;
          Alcotest.test_case "resume: zero evaluations" `Quick
            test_campaign_resume_zero_evaluations;
          Alcotest.test_case "resume: truncated store" `Quick
            test_campaign_resume_truncated_store;
          Alcotest.test_case "store campaign mismatch" `Quick
            test_campaign_store_mismatch;
          Alcotest.test_case "never regresses from seeding" `Quick
            test_campaign_beats_seeding_generation;
        ] );
    ]
