(* Bechamel benchmarks: one per paper table/figure (measuring the cost
   of regenerating it at reduced scale) plus ablation benches for the
   design choices DESIGN.md calls out, and microbenches for the hot
   substrate operations.  Scales are chosen so the full suite finishes
   in a few minutes; the bin/hypart.exe runners regenerate the tables
   at full fidelity. *)

open Bechamel
open Toolkit
module Rng = Hypart_rng.Rng
module H = Hypart_hypergraph.Hypergraph
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Initial = Hypart_partition.Initial
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config
module Matching = Hypart_multilevel.Matching
module Ml = Hypart_multilevel.Ml_partitioner
module Kl = Hypart_kl.Kl
module Campaigns = Hypart_harness.Campaigns
module Report = Hypart_lab.Report

let ignore1 f = Staged.stage (fun () -> ignore (f ()))

(* ------------- per-table/figure regeneration benches ------------- *)

let tables_bench name experiments render =
  Test.make ~name
    (ignore1 (fun () ->
         let manifest = Hypart_lab.Manifest.make ~name ~seed:1 ~experiments in
         render (fst (Campaigns.execute ~domains:1 ~store:None manifest))))

let table_benches =
  let instances = [ "ibm01" ] in
  let t1 = Campaigns.table1 ~scale:64.0 ~runs:2 ~instances () in
  let t2 = Campaigns.table23 `Lifo ~scale:64.0 ~runs:2 ~instances in
  let t3 = Campaigns.table23 `Clip ~scale:64.0 ~runs:2 ~instances in
  let t45 tolerance =
    Campaigns.tables45 ~scale:64.0 ~repeats:1 ~configs:[ 1; 2 ] ~instances ~tolerance
  in
  let t4 = t45 0.02 and t5 = t45 0.10 in
  let fig = Campaigns.figures ~scale:64.0 ~starts:4 ~instances in
  let corking = Campaigns.corking ~scale:32.0 ~runs:2 ~instance:"ibm01" in
  let label = Campaigns.figure_label and budgets = [| 0.01; 0.1 |] in
  Test.make_grouped ~name:"tables"
    [
      (* each table and figure as the CLI runs it: a fresh in-memory
         store, so every cell executes, on one domain, then rendered
         from the store *)
      tables_bench "table1" [ t1 ] (fun r -> Campaigns.table1_table r t1);
      tables_bench "table2" t2 (fun r -> Campaigns.table23_table r t2);
      tables_bench "table3" t3 (fun r -> Campaigns.table23_table r t3);
      tables_bench "table4_2pct" [ t4 ] (fun r -> Report.cut_cpu_table r t4);
      tables_bench "table5_10pct" [ t5 ] (fun r -> Report.cut_cpu_table r t5);
      tables_bench "fig_bsf" [ fig ] (fun r ->
          Report.bsf_table ~label ~budgets r fig ~instance:"ibm01");
      tables_bench "fig_pareto" [ fig ] (fun r -> Report.pareto ~label r fig ~instance:"ibm01");
      tables_bench "fig_ranking" [ fig ] (fun r -> Report.ranking_table ~label ~budgets r fig);
      tables_bench "fig_corking" [ corking ] (fun r -> Campaigns.corking_table r corking);
    ]

(* ------------- engine benches (one start, fixed instance) ------------- *)

let bench_problem = lazy (Problem.make ~tolerance:0.02 (Suite.instance ~scale:16.0 "ibm01"))

(* One bench per registered engine — a new engine gets a bench for free.
   KL's O(n^2) passes need a much smaller instance to fit the quota. *)
let kl_problem =
  lazy (Problem.make ~tolerance:0.10 (Suite.instance ~scale:128.0 "ibm01"))

let () = Hypart_engines.init ()

let engine_benches =
  let module Engine = Hypart_engine.Engine in
  Test.make_grouped ~name:"engines"
    (List.map
       (fun e ->
         let name = Engine.name e in
         let problem = if name = "kl" then kl_problem else bench_problem in
         Test.make ~name:(name ^ "_start")
           (ignore1 (fun () ->
                Engine.run e (Rng.create 1) (Lazy.force problem) None)))
       (Engine.all ()))

(* ------------- ablation benches (design choices of DESIGN.md §5) ------------- *)

let run_with config =
  ignore1 (fun () ->
      Fm.run_random_start ~config (Rng.create 1) (Lazy.force bench_problem))

let ablation_benches =
  Test.make_grouped ~name:"ablations"
    [
      Test.make_grouped ~name:"insertion"
        [
          Test.make ~name:"lifo"
            (run_with { Fm_config.strong_lifo with Fm_config.insertion = Fm_config.Lifo });
          Test.make ~name:"fifo"
            (run_with { Fm_config.strong_lifo with Fm_config.insertion = Fm_config.Fifo });
          Test.make ~name:"random"
            (run_with { Fm_config.strong_lifo with Fm_config.insertion = Fm_config.Random });
        ];
      Test.make_grouped ~name:"illegal_head"
        [
          Test.make ~name:"skip_side"
            (run_with { Fm_config.strong_lifo with Fm_config.illegal_head = Fm_config.Skip_side });
          Test.make ~name:"skip_bucket"
            (run_with { Fm_config.strong_lifo with Fm_config.illegal_head = Fm_config.Skip_bucket });
          Test.make ~name:"scan_bucket"
            (run_with { Fm_config.strong_lifo with Fm_config.illegal_head = Fm_config.Scan_bucket });
        ];
      Test.make_grouped ~name:"exclusion"
        [
          Test.make ~name:"with_fix"
            (run_with { Fm_config.strong_clip with Fm_config.exclude_oversized = true });
          Test.make ~name:"without_fix"
            (run_with { Fm_config.strong_clip with Fm_config.exclude_oversized = false });
        ];
      Test.make_grouped ~name:"pass_best"
        [
          Test.make ~name:"first"
            (run_with { Fm_config.strong_lifo with Fm_config.pass_best = Fm_config.First });
          Test.make ~name:"last"
            (run_with { Fm_config.strong_lifo with Fm_config.pass_best = Fm_config.Last });
          Test.make ~name:"most_balanced"
            (run_with { Fm_config.strong_lifo with Fm_config.pass_best = Fm_config.Most_balanced });
        ];
      Test.make_grouped ~name:"lookahead"
        [
          Test.make ~name:"depth1"
            (ignore1 (fun () ->
                 Hypart_fm.Lookahead_fm.run_random_start ~lookahead:1
                   (Rng.create 1) (Lazy.force bench_problem)));
          Test.make ~name:"depth2"
            (ignore1 (fun () ->
                 Hypart_fm.Lookahead_fm.run_random_start ~lookahead:2
                   (Rng.create 1) (Lazy.force bench_problem)));
          Test.make ~name:"depth3"
            (ignore1 (fun () ->
                 Hypart_fm.Lookahead_fm.run_random_start ~lookahead:3
                   (Rng.create 1) (Lazy.force bench_problem)));
        ];
      Test.make_grouped ~name:"kway"
        [
          Test.make ~name:"recursive_bisection_k4"
            (ignore1 (fun () ->
                 Hypart_multilevel.Recursive_bisection.run ~k:4 (Rng.create 1)
                   (Suite.instance ~scale:32.0 "ibm01")));
          Test.make ~name:"direct_kway_fm_k4"
            (ignore1 (fun () ->
                 Hypart_fm.Kway_fm.run_random_start ~k:4 (Rng.create 1)
                   (Suite.instance ~scale:32.0 "ibm01")));
          Test.make ~name:"ml_kway_k4"
            (ignore1 (fun () ->
                 Hypart_multilevel.Ml_kway.run ~k:4 (Rng.create 1)
                   (Suite.instance ~scale:32.0 "ibm01")));
        ];
      Test.make_grouped ~name:"coarsening"
        [
          Test.make ~name:"edge_coarsening"
            (ignore1 (fun () ->
                 Ml.run
                   ~config:{ Ml.ml_lifo with Ml.scheme = Matching.Edge_coarsening }
                   (Rng.create 1) (Lazy.force bench_problem)));
          Test.make ~name:"heavy_edge"
            (ignore1 (fun () ->
                 Ml.run
                   ~config:{ Ml.ml_lifo with Ml.scheme = Matching.Heavy_edge }
                   (Rng.create 1) (Lazy.force bench_problem)));
          Test.make ~name:"first_choice"
            (ignore1 (fun () ->
                 Ml.run
                   ~config:{ Ml.ml_lifo with Ml.scheme = Matching.First_choice }
                   (Rng.create 1) (Lazy.force bench_problem)));
          Test.make ~name:"hyperedge"
            (ignore1 (fun () ->
                 Ml.run
                   ~config:
                     { Ml.ml_lifo with Ml.scheme = Matching.Hyperedge_coarsening }
                   (Rng.create 1) (Lazy.force bench_problem)));
        ];
      Test.make_grouped ~name:"refinement"
        [
          Test.make ~name:"full"
            (ignore1 (fun () ->
                 Ml.run
                   ~config:{ Ml.ml_lifo with Ml.boundary_refinement = false }
                   (Rng.create 1) (Lazy.force bench_problem)));
          Test.make ~name:"boundary_only"
            (ignore1 (fun () ->
                 Ml.run
                   ~config:{ Ml.ml_lifo with Ml.boundary_refinement = true }
                   (Rng.create 1) (Lazy.force bench_problem)));
        ];
      Test.make_grouped ~name:"initial_solution"
        [
          Test.make ~name:"random"
            (ignore1 (fun () ->
                 Initial.random (Rng.create 1) (Lazy.force bench_problem)));
          Test.make ~name:"area_levelled"
            (ignore1 (fun () ->
                 Initial.area_levelled (Rng.create 1) (Lazy.force bench_problem)));
          Test.make ~name:"cluster_grown"
            (ignore1 (fun () ->
                 Initial.cluster_grown (Rng.create 1) (Lazy.force bench_problem)));
        ];
    ]

(* ------------- substrate microbenches ------------- *)

let substrate_benches =
  let h = lazy (Suite.instance ~scale:16.0 "ibm01") in
  Test.make_grouped ~name:"substrate"
    [
      Test.make ~name:"generate_ibm01_x64"
        (ignore1 (fun () -> Suite.instance ~scale:64.0 "ibm01"));
      Test.make ~name:"cut_evaluation"
        (ignore1 (fun () ->
             let problem = Lazy.force bench_problem in
             let sol = Initial.random (Rng.create 1) problem in
             Hypart_partition.Bipartition.cut problem.Problem.hypergraph sol));
      Test.make ~name:"contract_one_level"
        (ignore1 (fun () ->
             let h = Lazy.force h in
             let fixed = Array.make (H.num_vertices h) (-1) in
             let cluster_of, k =
               Matching.compute ~scheme:Matching.Edge_coarsening
                 ~rng:(Rng.create 1)
                 ~max_cluster_weight:(H.total_vertex_weight h / 50)
                 ~fixed h
             in
             H.contract h ~cluster_of ~num_clusters:k));
    ]

(* ------------- FM hot-path microbenches (warm per-domain workspace) ------------- *)

(* Scale knob so CI can run this group on a tiny instance:
   HYPART_BENCH_SCALE is the IBM-suite reduction factor (default 16,
   the same instance the engine benches use). *)
let micro_scale =
  match Sys.getenv_opt "HYPART_BENCH_SCALE" with
  | Some s -> ( try float_of_string s with _ -> 16.0)
  | None -> 16.0

let micro_problem =
  lazy (Problem.make ~tolerance:0.02 (Suite.instance ~scale:micro_scale "ibm01"))

(* Per-start FM and multilevel cost on the domain's warm workspace
   (only the first iteration allocates it).  The fresh-allocation
   variants these were once paired with are gone with the path they
   timed; the names stay so bench-diff keeps gating them. *)
let micro_benches =
  let starts = 8 in
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"fm_start_reused"
        (ignore1 (fun () ->
             Fm.run_random_start (Rng.create 1) (Lazy.force micro_problem)));
      Test.make ~name:"fm_starts8_reused"
        (ignore1 (fun () ->
             let p = Lazy.force micro_problem in
             let rng = Rng.create 2 in
             for _ = 1 to starts do
               ignore (Fm.run_random_start rng p)
             done));
      Test.make ~name:"ml_start_reused"
        (ignore1 (fun () ->
             Ml.run (Rng.create 3) (Lazy.force micro_problem)));
      (* the coarsening phase of a multilevel start on its own:
         matching and contraction at every level, no FM.  Coarsened to
         16 vertices rather than the engine's 120, so even CI's
         ~100-vertex instance builds several levels *)
      Test.make ~name:"ml_coarsen"
        (ignore1 (fun () ->
             let p = Lazy.force micro_problem in
             let coarsest_size = 16 in
             Hypart_multilevel.Coarsen.build ~scheme:Ml.default.Ml.scheme
               ~rng:(Rng.create 3) ~coarsest_size
               ~max_cluster_weight:(Ml.cluster_weight_cap p coarsest_size)
               p));
    ]

(* ------------- ingest benches (streaming parse, pack, mmap load) ------------- *)

module Io = Hypart_hypergraph.Netlist_io
module Store = Hypart_hypergraph.Instance_store
module Fingerprint = Hypart_lab.Fingerprint

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

(* one instance written once in both formats; sizes and pin count feed
   the throughput gauges below.  The fixture scale is fixed (not
   HYPART_BENCH_SCALE): at CI's heavily reduced scale the files are so
   small that open/mmap syscall jitter dominates and the regression
   gate flaps; ~1.6k cells keeps parse and load work-dominated while
   still finishing in microseconds *)
let ingest_fixture =
  lazy
    (let dir = Filename.get_temp_dir_name () in
     let hgr = Filename.concat dir "hypart_bench_ingest.hgr" in
     let hgrb = Filename.concat dir "hypart_bench_ingest.hgrb" in
     let h = Suite.instance ~scale:8.0 "ibm01" in
     Io.write_hgr hgr h;
     Store.save hgrb ~fingerprint:(Hypart_lab.Fingerprint.of_instance h) h;
     (h, hgr, hgrb, file_size hgr, file_size hgrb))

let ingest_edges =
  lazy
    (let h, _, _, _, _ = Lazy.force ingest_fixture in
     Array.init (H.num_edges h) (fun e ->
         let pins = Array.make (H.edge_size h e) 0 in
         ignore
           (H.fold_pins h e ~init:0 ~f:(fun i v ->
                pins.(i) <- v;
                i + 1));
         pins))

let ingest_benches =
  Test.make_grouped ~name:"ingest"
    [
      Test.make ~name:"text_parse"
        (ignore1 (fun () ->
             let _, hgr, _, _, _ = Lazy.force ingest_fixture in
             Io.read_hgr hgr));
      Test.make ~name:"binary_load"
        (ignore1 (fun () ->
             let _, _, hgrb, _, _ = Lazy.force ingest_fixture in
             Store.load hgrb));
      Test.make ~name:"binary_save"
        (ignore1 (fun () ->
             let h, _, hgrb, _, _ = Lazy.force ingest_fixture in
             Store.save (hgrb ^ ".save") ~fingerprint:"0123456789abcdef" h));
      Test.make ~name:"csr_build"
        (ignore1 (fun () ->
             let h, _, _, _, _ = Lazy.force ingest_fixture in
             H.create ~num_vertices:(H.num_vertices h)
               ~edges:(Lazy.force ingest_edges) ()));
      Test.make ~name:"fingerprint"
        (ignore1 (fun () ->
             let h, _, _, _, _ = Lazy.force ingest_fixture in
             Fingerprint.of_instance h));
    ]

(* ------------- evolve benches (memetic substrate) ------------- *)

module Evolve = Hypart_evolve.Evolve
module Population = Hypart_evolve.Population
module Bipartition = Hypart_partition.Bipartition

(* two decent parents produced once; recombine is the per-offspring hot
   path of a memetic generation, so its cost vs a from-scratch ml start
   is the number the campaign's CPU accounting hinges on *)
let evolve_parents =
  lazy
    (let p = Lazy.force micro_problem in
     let a = Ml.run (Rng.create 11) p in
     let b = Ml.run (Rng.create 12) p in
     (p, a, b))

let evolve_benches =
  Test.make_grouped ~name:"evolve"
    [
      Test.make ~name:"recombine"
        (ignore1 (fun () ->
             let p, a, b = Lazy.force evolve_parents in
             Ml.recombine (Rng.create 13) p a.Hypart_fm.Fm.solution
               b.Hypart_fm.Fm.solution));
      Test.make ~name:"population_insert"
        (ignore1 (fun () ->
             let p, a, _ = Lazy.force evolve_parents in
             let h = p.Problem.hypergraph in
             let n = H.num_vertices h in
             let pop = Population.create ~capacity:8 in
             for i = 0 to 15 do
               let sol = Bipartition.copy a.Hypart_fm.Fm.solution in
               (* flip a few vertices so similarities differ per member *)
               for v = 0 to min 7 (n - 1) do
                 if (i + v) mod 3 = 0 then Bipartition.move sol h v
               done;
               ignore
                 (Population.insert pop ~gen:0 ~slot:i ~kind:"seed" ~seed:i
                    ~cut:(a.Hypart_fm.Fm.cut + i) ~legal:true ~seconds:0. sol)
             done));
      Test.make ~name:"campaign_small"
        (ignore1 (fun () ->
             let p = Lazy.force micro_problem in
             Evolve.run
               {
                 Evolve.default with
                 Evolve.population = 4;
                 generations = 2;
                 recombinations = 2;
                 immigrants = 1;
               }
               ~seed:7 p));
    ]

(* ------------- eco benches (incremental repartitioning) ------------- *)

module Patch = Hypart_delta.Patch
module Delta_gen = Hypart_delta.Delta_gen
module Eco = Hypart_delta.Eco
module Eco_engines = Hypart_delta.Eco_engines

(* a 1% delta against ibm01 at the ingest fixture's scale; the prior is
   one mlclip start so warm refinement has a realistic boundary.  The
   scratch bench runs the same engine on the patched instance, so the
   warm_refine/scratch_repartition ratio is the subsystem's whole point
   measured under the same harness. *)
let eco_fixture =
  lazy
    (let h = Suite.instance ~scale:8.0 "ibm01" in
     let fp = Fingerprint.of_instance h in
     let problem = Problem.make ~tolerance:0.02 h in
     let prior =
       Bipartition.assignment (Ml.run (Rng.create 7) problem).Hypart_fm.Fm.solution
     in
     let delta = Delta_gen.perturb ~base_fingerprint:fp ~rng:(Rng.create 11) ~fraction:0.01 h in
     let patch = Patch.apply ~base:h ~base_fingerprint:fp delta in
     (h, fp, delta, patch, prior))

let eco_benches =
  let module Engine = Hypart_engine.Engine in
  let scratch = lazy (Engine.find_exn "mlclip") in
  Test.make_grouped ~name:"eco"
    [
      Test.make ~name:"delta_apply"
        (ignore1 (fun () ->
             let h, fp, delta, _, _ = Lazy.force eco_fixture in
             Patch.apply ~base:h ~base_fingerprint:fp delta));
      Test.make ~name:"warm_start_project"
        (ignore1 (fun () ->
             let _, _, _, patch, prior = Lazy.force eco_fixture in
             Eco.project patch ~prior));
      Test.make ~name:"boundary_localize"
        (ignore1 (fun () ->
             let _, _, _, patch, prior = Lazy.force eco_fixture in
             Eco.localize patch ~radius:1 ~assignment:(Eco.project patch ~prior)));
      Test.make ~name:"warm_refine"
        (ignore1 (fun () ->
             let _, _, _, patch, prior = Lazy.force eco_fixture in
             Eco.run ~engine:Eco_engines.eco_fm ~scratch:(Lazy.force scratch)
               ~seed:5 ~prior patch));
      Test.make ~name:"scratch_repartition"
        (ignore1 (fun () ->
             let _, _, _, patch, _ = Lazy.force eco_fixture in
             let problem =
               Problem.make ~tolerance:0.02 patch.Patch.hypergraph
             in
             Engine.run (Lazy.force scratch) (Rng.create 5) problem None));
    ]

(* ------------- driver ------------- *)

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Instance.monotonic_clock raw

let collect_results results =
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (x :: _) -> x
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.sort (fun (a, _) (b, _) -> compare a b) !rows

let print_results rows =
  Printf.printf "%-50s %15s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e9 then Printf.sprintf "%8.2f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-50s %15s\n" name pretty)
    rows

(* Machine-readable snapshot so the perf trajectory is tracked across
   PRs: every benchmark becomes a [bench.<name>] gauge (nanoseconds per
   run) in a telemetry metrics JSON file. *)
let snapshot_path =
  match Sys.getenv_opt "HYPART_BENCH_OUT" with
  | Some p -> p
  | None -> "BENCH_RESULTS.json"

(* HYPART_BENCH_GROUPS selects a comma-separated subset of bench groups
   (e.g. "micro" for the CI perf smoke); unset or empty runs them all. *)
let all_groups =
  [
    ("tables", table_benches);
    ("engines", engine_benches);
    ("ablations", ablation_benches);
    ("substrate", substrate_benches);
    ("micro", micro_benches);
    ("ingest", ingest_benches);
    ("evolve", evolve_benches);
    ("eco", eco_benches);
  ]

let selected_groups =
  match Sys.getenv_opt "HYPART_BENCH_GROUPS" with
  | None | Some "" -> List.map snd all_groups
  | Some spec ->
    let wanted =
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    List.map
      (fun w ->
        match List.assoc_opt w all_groups with
        | Some g -> g
        | None ->
          Printf.eprintf "unknown bench group %S (known: %s)\n" w
            (String.concat ", " (List.map fst all_groups));
          exit 2)
      wanted

let () =
  let module Telemetry = Hypart_telemetry.Telemetry in
  let module Metrics = Hypart_telemetry.Metrics in
  Telemetry.enable ();
  let groups = selected_groups in
  List.iter
    (fun tests ->
      let rows = collect_results (benchmark tests) in
      List.iter
        (fun (name, ns) ->
          if Float.is_finite ns then Metrics.set_gauge ("bench." ^ name) ns)
        rows;
      print_results rows;
      print_newline ())
    groups;
  (* throughput gauges derived from the ingest timings.  Deliberately
     NOT under the gated "bench." prefix: these grow when ingest gets
     faster, and hypart bench-diff treats growth of gated gauges as a
     regression *)
  (let text_ns = Metrics.gauge_value "bench.ingest/text_parse" in
   if text_ns > 0. then begin
     let h, _, _, hgr_bytes, hgrb_bytes = Lazy.force ingest_fixture in
     let pins = float_of_int (H.num_pins h) in
     let mb_s bytes ns = float_of_int bytes /. 1048576. /. (ns /. 1e9) in
     let per_s count ns = count /. (ns /. 1e9) in
     Metrics.set_gauge "ingest.text_parse_mb_s" (mb_s hgr_bytes text_ns);
     Metrics.set_gauge "ingest.text_parse_pins_s" (per_s pins text_ns);
     let load_ns = Metrics.gauge_value "bench.ingest/binary_load" in
     if load_ns > 0. then begin
       Metrics.set_gauge "ingest.binary_load_mb_s" (mb_s hgrb_bytes load_ns);
       Metrics.set_gauge "ingest.binary_load_pins_s" (per_s pins load_ns)
     end
   end);
  (* calibrate after the benchmarks so the spin loop doesn't heat the
     machine under them; the factor makes the committed baseline
     comparable across runner speeds (hypart bench-diff multiplies
     each side by its own factor) *)
  Hypart_engine.Machine.set_normalization_factor
    (Hypart_engine.Machine.calibrate ());
  Metrics.set_gauge "bench.normalization_factor"
    (Hypart_engine.Machine.normalization_factor ());
  (* stamp the snapshot with the commit it measures, so trajectories
     across PRs stay attributable (the DAC'99 reporting discipline) *)
  Metrics.write
    ~provenance:[ ("git", Hypart_lab.Provenance.git_describe ()) ]
    snapshot_path;
  Printf.printf "wrote %s\n" snapshot_path
