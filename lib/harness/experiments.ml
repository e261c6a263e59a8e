module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config
module Ml = Hypart_multilevel.Ml_partitioner
module Descriptive = Hypart_stats.Descriptive
module Bsf = Hypart_stats.Bsf
module Pareto = Hypart_stats.Pareto
module Ranking = Hypart_stats.Ranking
module Tel = Hypart_telemetry.Control
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace
module Engine = Hypart_engine.Engine
module Machine = Hypart_engine.Machine
module Fm_engines = Hypart_fm.Fm_engines
module Ml_engines = Hypart_multilevel.Ml_engines
module Lab_store = Hypart_lab.Run_store
module Lab_fp = Hypart_lab.Fingerprint
module Manifest = Hypart_lab.Manifest

type fm_variant = Flat_lifo | Flat_clip | Ml_lifo | Ml_clip

let variant_name = function
  | Flat_lifo -> "Flat LIFO FM"
  | Flat_clip -> "Flat CLIP FM"
  | Ml_lifo -> "ML LIFO FM"
  | Ml_clip -> "ML CLIP FM"

(* Registry engine backing each of the paper's four named variants; the
   values are the registered ones, so tables and CLI stay in sync. *)
let variant_engine = function
  | Flat_lifo -> Fm_engines.flat
  | Flat_clip -> Fm_engines.clip
  | Ml_lifo -> Ml_engines.ml
  | Ml_clip -> Ml_engines.mlclip

let instance_problem ?(scale = 4.0) ~tolerance name =
  Problem.make ~tolerance (Suite.instance ~scale name)

(* Per-start telemetry, mirroring the paper's avg-cut/avg-CPU reporting
   unit: every independent start contributes one cut and one CPU-seconds
   sample. *)
let record_start cut dt =
  if Tel.is_enabled () then begin
    Metrics.incr "exp.starts";
    Metrics.observe "exp.start_cut" (float_of_int cut);
    Metrics.observe "exp.start_seconds" dt
  end

let timed_start f =
  let cut, dt = Machine.cpu_time f in
  record_start cut dt;
  cut

(* One single-start trial of a variant; returns the final cut. *)
let run_variant variant fm_config rng problem =
  timed_start (fun () ->
      match variant with
      | Flat_lifo | Flat_clip ->
        (Fm.run_random_start ~config:fm_config rng problem).Fm.cut
      | Ml_lifo | Ml_clip ->
        let config = { Ml.default with Ml.fm = fm_config } in
        (Ml.run ~config rng problem).Fm.cut)

let fm_config_of_variant variant ~bias ~update =
  let base =
    match variant with
    | Flat_lifo | Ml_lifo -> Fm_config.strong_lifo
    | Flat_clip | Ml_clip -> Fm_config.strong_clip
  in
  Fm_config.with_bias bias (Fm_config.with_update update base)

let cuts_of_runs ~runs f =
  Array.init runs (fun i -> f i)

(* ------------------------------------------------------------------ *)
(* Run-store integration (lib/lab)                                     *)
(* ------------------------------------------------------------------ *)

(* When a protocol is given a store directory, each unit of work (one
   seeded run) is content-addressed in the lib/lab run store: stored
   runs are served from it — an unchanged re-invocation performs zero
   engine runs — and fresh runs are recorded, flushed per record.
   Store-backed protocols derive one seed per run from the cell
   identity instead of consuming a shared RNG stream, so cached and
   fresh runs are interchangeable; the numbers therefore differ from
   the storeless shared-stream protocol but remain deterministic. *)
let with_store store f =
  match store with
  | None -> f None
  | Some dir ->
    let s = Lab_store.open_store dir in
    Fun.protect ~finally:(fun () -> Lab_store.close s) (fun () -> f (Some s))

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let updates = [ (Fm_config.All_delta_gain, "All-dg"); (Fm_config.Nonzero_only, "Nonzero") ]
let biases = [ (Fm_config.Away, "Away"); (Fm_config.Part0, "Part0"); (Fm_config.Toward, "Toward") ]

let table1 ?(scale = 4.0) ?(runs = 20) ?(tolerance = 0.02)
    ?(instances = Suite.names_small) ~seed () =
  Trace.span "exp.table1" @@ fun () ->
  let problems =
    List.map (fun name -> instance_problem ~scale ~tolerance name) instances
  in
  let table = Table.make ~headers:([ "Updates"; "Bias" ] @ instances) in
  let first = ref true in
  List.iter
    (fun variant ->
      if not !first then Table.add_separator table;
      first := false;
      Table.add_span table (variant_name variant);
      Table.add_separator table;
      List.iter
        (fun (update, update_name) ->
          List.iter
            (fun (bias, bias_name) ->
              let config = fm_config_of_variant variant ~bias ~update in
              let cells =
                List.map
                  (fun problem ->
                    let rng = Rng.create seed in
                    let cuts =
                      cuts_of_runs ~runs (fun _ -> run_variant variant config rng problem)
                    in
                    Descriptive.min_avg cuts)
                  problems
              in
              Table.add_row table ([ update_name; bias_name ] @ cells))
            biases)
        updates)
    [ Flat_lifo; Flat_clip; Ml_lifo; Ml_clip ];
  table

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3                                                      *)
(* ------------------------------------------------------------------ *)

let table_reported_vs_ours ~engine ?(scale = 4.0) ?(runs = 20)
    ?(instances = Suite.names_small) ~seed () =
  Trace.span "exp.table_reported_vs_ours" @@ fun () ->
  let reported, ours, label =
    match engine with
    | `Lifo -> (Fm_config.reported_lifo, Fm_config.strong_lifo, "LIFO")
    | `Clip -> (Fm_config.reported_clip, Fm_config.strong_clip, "CLIP")
  in
  let table = Table.make ~headers:([ "Tolerance"; "Algorithm" ] @ instances) in
  List.iter
    (fun tolerance ->
      let problems =
        List.map (fun name -> instance_problem ~scale ~tolerance name) instances
      in
      List.iter
        (fun (config, alg_name) ->
          let cells =
            List.map
              (fun problem ->
                let rng = Rng.create seed in
                let cuts =
                  cuts_of_runs ~runs (fun _ ->
                      timed_start (fun () ->
                          (Fm.run_random_start ~config rng problem).Fm.cut))
                in
                Descriptive.min_avg cuts)
              problems
          in
          Table.add_row table
            ([ Printf.sprintf "%02.0f%%" (100. *. tolerance); alg_name ] @ cells))
        [ (reported, "Reported " ^ label); (ours, "Our " ^ label) ])
    [ 0.02; 0.10 ];
  table

(* ------------------------------------------------------------------ *)
(* Tables 4 and 5                                                      *)
(* ------------------------------------------------------------------ *)

let table_multistart_eval ?(scale = 8.0) ?(repeats = 5)
    ?(configs = [ 1; 2; 4; 8; 16; 100 ]) ?(instances = Suite.names_eval)
    ?store ~tolerance ~seed () =
  Trace.span "exp.table_multistart_eval" @@ fun () ->
  with_store store @@ fun ctx ->
  let headers =
    "Circuit" :: List.map (fun n -> Printf.sprintf "%d start%s" n (if n = 1 then "" else "s")) configs
  in
  let table = Table.make ~headers in
  (* One protocol repetition: N starts, V-cycle the best.  [rng] drives
     the whole repetition (starts and polish). *)
  let repetition rng problem starts =
    Trace.begin_span "exp.multistart";
    let (best, _), dt =
      Machine.cpu_time (fun () ->
          Engine.multistart
            ~polish_best:
              (Ml_engines.vcycle_polish ~config:Ml.ml_clip rng problem)
            Ml_engines.mlclip rng problem ~starts)
    in
    Trace.end_span "exp.multistart"
      ~args:
        [
          ("starts", float_of_int starts);
          ("cut", float_of_int best.Engine.Result.cut);
          ("seconds", dt);
        ];
    record_start best.Engine.Result.cut dt;
    (best, dt)
  in
  List.iter
    (fun name ->
      let problem = instance_problem ~scale ~tolerance name in
      let instance_fp =
        match ctx with
        | None -> ""
        | Some _ -> Lab_fp.of_instance problem.Hypart_partition.Problem.hypergraph
      in
      let cells =
        List.map
          (fun starts ->
            let rng = Rng.create seed in
            let cuts = Array.make repeats 0.0 in
            let times = Array.make repeats 0.0 in
            for r = 0 to repeats - 1 do
              match ctx with
              | None ->
                (* storeless protocol: one shared stream, as published *)
                let best, dt = repetition rng problem starts in
                cuts.(r) <- float_of_int best.Engine.Result.cut;
                times.(r) <- Machine.normalize dt
              | Some ctx ->
                let repeat_seed =
                  Lab_fp.mix_seed ~base:seed
                    [ "tables45"; name; string_of_int starts; string_of_int r ]
                in
                let config =
                  Manifest.config_fingerprint ~scale ~tolerance
                    ~protocol:"multistart+vcycle"
                    [ ("starts", string_of_int starts) ]
                in
                let stored =
                  Lab_store.memo ctx ~engine:"mlclip" ~config
                    ~instance:instance_fp ~seed:repeat_seed (fun () ->
                      let rng = Rng.create repeat_seed in
                      let best, _ = repetition rng problem starts in
                      (best.Engine.Result.cut, best.Engine.Result.legal))
                in
                cuts.(r) <- float_of_int stored.Lab_store.cut;
                times.(r) <- Machine.normalize stored.Lab_store.seconds
            done;
            Printf.sprintf "%.1f/%.2f" (Descriptive.mean cuts)
              (Descriptive.mean times))
          configs
      in
      Table.add_row table (name :: cells))
    instances;
  table

(* ------------------------------------------------------------------ *)
(* BSF curves                                                          *)
(* ------------------------------------------------------------------ *)

let default_budgets = [| 0.1; 0.25; 0.5; 1.0; 2.0; 5.0; 10.0 |]

let heuristic_records ~starts rng problem variant =
  snd (Engine.multistart (variant_engine variant) rng problem ~starts)

let records_array records =
  Array.of_list
    (List.map
       (fun r ->
         ( Machine.normalize r.Engine.start_seconds,
           float_of_int r.Engine.start_cut ))
       records)

let bsf_heuristics = [ Flat_lifo; Flat_clip; Ml_clip ]

let bsf_curves ?(scale = 8.0) ?(starts = 20) ?(tolerance = 0.02)
    ?(budgets = default_budgets) ~instance ~seed () =
  let problem = instance_problem ~scale ~tolerance instance in
  List.map
    (fun variant ->
      let rng = Rng.create seed in
      let records = records_array (heuristic_records ~starts rng problem variant) in
      let curve =
        Bsf.expected_curve (Rng.create (seed + 1)) ~records ~budgets ~resamples:200
      in
      (variant, curve))
    bsf_heuristics

let bsf_figure ?scale ?starts ?tolerance ?(budgets = default_budgets) ~instance
    ~seed () =
  let curves = bsf_curves ?scale ?starts ?tolerance ~budgets ~instance ~seed () in
  let headers =
    "CPU budget (s)" :: List.map (fun (v, _) -> variant_name v) curves
  in
  let table = Table.make ~headers in
  Array.iteri
    (fun i tau ->
      let cells =
        List.map
          (fun (_, curve) ->
            if curve.(i) = infinity then "-"
            else Printf.sprintf "%.1f" curve.(i))
          curves
      in
      Table.add_row table (Printf.sprintf "%.2f" tau :: cells))
    budgets;
  table

(* ------------------------------------------------------------------ *)
(* Pareto frontier                                                     *)
(* ------------------------------------------------------------------ *)

let pareto_figure ?(scale = 8.0) ?(repeats = 3) ?(tolerance = 0.02) ~instance
    ~seed () =
  let problem = instance_problem ~scale ~tolerance instance in
  let points = ref [] in
  List.iter
    (fun variant ->
      List.iter
        (fun starts ->
          let rng = Rng.create seed in
          let cuts = Array.make repeats 0.0 and times = Array.make repeats 0.0 in
          for r = 0 to repeats - 1 do
            let (best, _), dt =
              Machine.cpu_time (fun () ->
                  Engine.multistart (variant_engine variant) rng problem ~starts)
            in
            cuts.(r) <- float_of_int best.Engine.Result.cut;
            times.(r) <- Machine.normalize dt
          done;
          let label = Printf.sprintf "%s x%d" (variant_name variant) starts in
          points :=
            {
              Pareto.label;
              Pareto.cost = Descriptive.mean cuts;
              Pareto.runtime = Descriptive.mean times;
            }
            :: !points)
        [ 1; 4; 16 ])
    [ Flat_lifo; Flat_clip; Ml_lifo; Ml_clip ];
  let points = List.rev !points in
  let frontier = Pareto.frontier points in
  let on_frontier p = List.memq p frontier in
  let table =
    Table.make ~headers:[ "Configuration"; "Avg cut"; "CPU (s)"; "Frontier" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          p.Pareto.label;
          Printf.sprintf "%.1f" p.Pareto.cost;
          Printf.sprintf "%.3f" p.Pareto.runtime;
          (if on_frontier p then "*" else "");
        ])
    points;
  let frontier_data =
    List.map (fun p -> (p.Pareto.label, p.Pareto.cost, p.Pareto.runtime)) frontier
  in
  (table, frontier_data)

(* ------------------------------------------------------------------ *)
(* Ranking diagram                                                     *)
(* ------------------------------------------------------------------ *)

let ranking_figure ?(scale = 8.0) ?(starts = 15) ?(tolerance = 0.02)
    ?(budgets = default_budgets) ?(instances = Suite.names_small) ~seed () =
  let per_instance =
    List.map
      (fun name ->
        let curves =
          bsf_curves ~scale ~starts ~tolerance ~budgets ~instance:name ~seed ()
        in
        (name, List.map (fun (v, c) -> (variant_name v, c)) curves))
      instances
  in
  let winners = Ranking.dominance_table ~budgets ~per_instance in
  let headers =
    "Circuit" :: Array.to_list (Array.map (Printf.sprintf "%.2fs") budgets)
  in
  let table = Table.make ~headers in
  List.iter
    (fun (name, row) -> Table.add_row table (name :: Array.to_list row))
    winners;
  table

(* ------------------------------------------------------------------ *)
(* Head-to-head comparison                                             *)
(* ------------------------------------------------------------------ *)

let compare_engines ?(scale = 8.0) ?(runs = 20) ?(tolerance = 0.02) ?store
    ~engine_a ~engine_b ~instance ~seed () =
  Hypart_engines.init ();
  (* unknown names raise Invalid_argument listing the registry, before
     anything is generated or a store is created *)
  let a = Engine.find_exn engine_a in
  let b = Engine.find_exn engine_b in
  let problem = instance_problem ~scale ~tolerance instance in
  let sample ctx name engine =
    match ctx with
    | None ->
      let rng = Rng.create seed in
      let cuts = Array.make runs 0 in
      let (), dt =
        Machine.cpu_time (fun () ->
            for i = 0 to runs - 1 do
              cuts.(i) <- (Engine.run engine rng problem None).Engine.Result.cut
            done)
      in
      (cuts, dt /. float_of_int runs)
    | Some ctx ->
      let instance_fp =
        Lab_fp.of_instance problem.Hypart_partition.Problem.hypergraph
      in
      let config =
        Manifest.config_fingerprint ~scale ~tolerance ~protocol:"single-start"
          []
      in
      let cuts = Array.make runs 0 in
      let total = ref 0.0 in
      for i = 0 to runs - 1 do
        let run_seed =
          Lab_fp.mix_seed ~base:seed
            [ "compare"; name; instance; string_of_int i ]
        in
        let stored =
          Lab_store.memo ctx ~engine:name ~config ~instance:instance_fp
            ~seed:run_seed (fun () ->
              let r = Engine.run engine (Rng.create run_seed) problem None in
              (r.Engine.Result.cut, r.Engine.Result.legal))
        in
        cuts.(i) <- stored.Lab_store.cut;
        total := !total +. stored.Lab_store.seconds
      done;
      (cuts, !total /. float_of_int runs)
  in
  let (cuts_a, time_a), (cuts_b, time_b) =
    with_store store (fun ctx ->
        let sa = sample ctx engine_a a in
        (sa, sample ctx engine_b b))
  in
  let table =
    Table.make
      ~headers:
        [ "Engine"; "min/avg"; "stddev"; "95% CI of mean"; "CPU s/run" ]
  in
  let row name cuts dt =
    let xs = Descriptive.of_ints cuts in
    let ci = Hypart_stats.Bootstrap.mean_ci (Rng.create (seed + 7)) xs in
    Table.add_row table
      [
        name;
        Descriptive.min_avg cuts;
        Printf.sprintf "%.1f" (Descriptive.stddev xs);
        Printf.sprintf "[%.1f, %.1f]" ci.Hypart_stats.Bootstrap.lo
          ci.Hypart_stats.Bootstrap.hi;
        Printf.sprintf "%.3f" (Machine.normalize dt);
      ]
  in
  row engine_a cuts_a time_a;
  row engine_b cuts_b time_b;
  let xa = Descriptive.of_ints cuts_a and xb = Descriptive.of_ints cuts_b in
  let t = Hypart_stats.Significance.welch_t_test xa xb in
  let u = Hypart_stats.Significance.mann_whitney_u xa xb in
  let mean_a = Descriptive.mean xa and mean_b = Descriptive.mean xb in
  let verdict =
    let p = Float.min t.Hypart_stats.Significance.p_value
        u.Hypart_stats.Significance.p_value in
    if p > 0.05 then
      Printf.sprintf
        "no significant difference at the 5%% level (Welch p=%.3f, MWU p=%.3f) \
         — per Brglez, do not report one as better"
        t.Hypart_stats.Significance.p_value
        u.Hypart_stats.Significance.p_value
    else
      Printf.sprintf
        "%s is significantly better (mean %.1f vs %.1f; Welch p=%.4f, MWU p=%.4f)"
        (if mean_a < mean_b then engine_a else engine_b)
        (Float.min mean_a mean_b) (Float.max mean_a mean_b)
        t.Hypart_stats.Significance.p_value
        u.Hypart_stats.Significance.p_value
  in
  (table, verdict)

(* ------------------------------------------------------------------ *)
(* Placement quality                                                   *)
(* ------------------------------------------------------------------ *)

let placement_table ?(scale = 8.0) ?(runs = 3) ~instance ~seed () =
  let module Topdown = Hypart_placement.Topdown in
  let h = Suite.instance ~scale instance in
  let table =
    Table.make ~headers:[ "Partitioner"; "avg HPWL"; "CPU s/run" ]
  in
  let measure name place =
    let hpwls = Array.make runs 0.0 in
    let (), dt =
      Machine.cpu_time (fun () ->
          for i = 0 to runs - 1 do
            hpwls.(i) <- Topdown.hpwl h (place (Rng.create (seed + i)))
          done)
    in
    let dt = dt /. float_of_int runs in
    Table.add_row table
      [
        name;
        Printf.sprintf "%.0f" (Descriptive.mean hpwls);
        Printf.sprintf "%.3f" (Machine.normalize dt);
      ]
  in
  measure "random placement" (fun rng -> Topdown.random_placement rng h);
  let with_fm fm = { Topdown.default_config with Topdown.fm } in
  measure "Reported LIFO FM" (fun rng ->
      Topdown.place ~config:(with_fm Fm_config.reported_lifo) rng h);
  measure "Our LIFO FM" (fun rng ->
      Topdown.place ~config:(with_fm Fm_config.strong_lifo) rng h);
  measure "Our CLIP FM" (fun rng ->
      Topdown.place ~config:(with_fm Fm_config.strong_clip) rng h);
  measure "multilevel" (fun rng ->
      Topdown.place
        ~config:{ Topdown.default_config with Topdown.ml_threshold = 150 }
        rng h);
  table

(* ------------------------------------------------------------------ *)
(* Runtime regimes                                                     *)
(* ------------------------------------------------------------------ *)

let runtime_regime_table ?(include_750k = false) ?(tolerance = 0.02) ~seed () =
  let table =
    Table.make
      ~headers:[ "Instance"; "cells"; "ML cut"; "CPU s"; "budget s"; "fits?" ]
  in
  let rows =
    [ ("ibm01", 1.0); ("ibm05", 1.0); ("ibm10", 1.0); ("ibm14", 1.0);
      ("ibm18", 1.0) ]
    @ (if include_750k then [ ("ibm18", 0.28) ] else [])
  in
  List.iter
    (fun (name, scale) ->
      let h = Suite.instance ~scale name in
      let cells = Hypart_hypergraph.Hypergraph.num_vertices h in
      let problem = Problem.make ~tolerance h in
      let r, dt =
        Machine.cpu_time (fun () ->
            Ml.run ~config:Ml.ml_lifo (Rng.create seed) problem)
      in
      let dt = Machine.normalize dt in
      (* 1 minute per 6000 cells for the whole placement; partitioning
         gets roughly the level-0 share of the recursive bisection,
         which the paper quotes as ~5s at 25k cells: budget = cells/5000 s *)
      let budget = float_of_int cells /. 5000.0 in
      Table.add_row table
        [
          (if scale = 1.0 then name else Printf.sprintf "%s x%.2f" name scale);
          string_of_int cells;
          string_of_int r.Fm.cut;
          Printf.sprintf "%.1f" dt;
          Printf.sprintf "%.1f" budget;
          (if dt <= budget then "yes" else "NO");
        ])
    rows;
  table

(* ------------------------------------------------------------------ *)
(* Fixed terminals                                                     *)
(* ------------------------------------------------------------------ *)

let fixed_terminals_table ?(scale = 8.0) ?(runs = 12) ?(tolerance = 0.10)
    ?(fractions = [ 0.0; 0.02; 0.10; 0.25; 0.50 ]) ~instance ~seed () =
  let h = Suite.instance ~scale instance in
  let n = Hypart_hypergraph.Hypergraph.num_vertices h in
  let table =
    Table.make
      ~headers:[ "fixed %"; "min/avg cut"; "stddev"; "avg passes"; "CPU s/run" ]
  in
  List.iter
    (fun fraction ->
      let rng = Rng.create seed in
      let fixed = Array.make n (-1) in
      let k = int_of_float (fraction *. float_of_int n) in
      let sample = Rng.sample_distinct rng ~n:k ~universe:n in
      Array.iteri (fun i v -> fixed.(v) <- i mod 2) sample;
      let problem = Problem.make ~fixed ~tolerance h in
      let cuts = Array.make runs 0 in
      let passes = ref 0 in
      let (), dt =
        Machine.cpu_time (fun () ->
            for i = 0 to runs - 1 do
              let r = Fm.run_random_start rng problem in
              cuts.(i) <- r.Fm.cut;
              passes := !passes + r.Fm.stats.Fm.passes
            done)
      in
      let dt = dt /. float_of_int runs in
      Table.add_row table
        [
          Printf.sprintf "%.0f" (100. *. fraction);
          Descriptive.min_avg cuts;
          Printf.sprintf "%.1f" (Descriptive.stddev (Descriptive.of_ints cuts));
          Printf.sprintf "%.1f" (float_of_int !passes /. float_of_int runs);
          Printf.sprintf "%.3f" (Machine.normalize dt);
        ])
    fractions;
  table

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_table ?(scale = 8.0) ?(runs = 10) ?(tolerance = 0.02) ~instance
    ~seed () =
  let problem = instance_problem ~scale ~tolerance instance in
  let table =
    Table.make ~headers:[ "Dimension"; "Setting"; "min/avg cut"; "CPU s/run" ]
  in
  let measure f =
    let rng = Rng.create seed in
    let cuts = Array.make runs 0 in
    let (), dt =
      Machine.cpu_time (fun () ->
          for i = 0 to runs - 1 do
            cuts.(i) <- f rng problem
          done)
    in
    let dt = dt /. float_of_int runs in
    (Descriptive.min_avg cuts, Printf.sprintf "%.3f" (Machine.normalize dt))
  in
  let flat config rng problem =
    (Fm.run_random_start ~config rng problem).Fm.cut
  in
  let add dimension setting f =
    let cell, time = measure f in
    Table.add_row table [ dimension; setting; cell; time ]
  in
  let module C = Fm_config in
  List.iter
    (fun (name, insertion) ->
      add "insertion" name (flat { C.strong_lifo with C.insertion }))
    [ ("lifo", C.Lifo); ("fifo", C.Fifo); ("random", C.Random) ];
  Table.add_separator table;
  List.iter
    (fun (name, illegal_head) ->
      add "illegal head" name (flat { C.strong_lifo with C.illegal_head }))
    [ ("skip-side", C.Skip_side); ("skip-bucket", C.Skip_bucket);
      ("scan-bucket", C.Scan_bucket) ];
  Table.add_separator table;
  List.iter
    (fun (name, exclude_oversized) ->
      add "oversized cells" name (flat { C.strong_clip with C.exclude_oversized }))
    [ ("excluded (fix)", true); ("inserted (cork)", false) ];
  Table.add_separator table;
  List.iter
    (fun (name, pass_best) ->
      add "pass best" name (flat { C.strong_lifo with C.pass_best }))
    [ ("first", C.First); ("last", C.Last); ("most-balanced", C.Most_balanced) ];
  Table.add_separator table;
  List.iter
    (fun (name, initial) ->
      add "initial solution" name (fun rng problem ->
          let s = initial rng problem in
          (Fm.run ~config:C.strong_lifo rng problem s).Fm.cut))
    [
      ("random", Hypart_partition.Initial.random);
      ("area-levelled", Hypart_partition.Initial.area_levelled);
      ("cluster-grown", Hypart_partition.Initial.cluster_grown);
    ];
  Table.add_separator table;
  List.iter
    (fun (name, scheme) ->
      add "coarsening" name (fun rng problem ->
          (Ml.run ~config:{ Ml.ml_lifo with Ml.scheme } rng problem).Fm.cut))
    [
      ("edge-coarsening", Hypart_multilevel.Matching.Edge_coarsening);
      ("heavy-edge", Hypart_multilevel.Matching.Heavy_edge);
      ("first-choice", Hypart_multilevel.Matching.First_choice);
      ("hyperedge", Hypart_multilevel.Matching.Hyperedge_coarsening);
    ];
  Table.add_separator table;
  List.iter
    (fun (name, boundary_refinement) ->
      add "refinement" name (fun rng problem ->
          (Ml.run ~config:{ Ml.ml_lifo with Ml.boundary_refinement } rng problem)
            .Fm.cut))
    [ ("full", false); ("boundary-only", true) ];
  table

(* ------------------------------------------------------------------ *)
(* Corking diagnostic                                                  *)
(* ------------------------------------------------------------------ *)

let corking_report ?(scale = 4.0) ?(runs = 10) ?(tolerance = 0.02) ~instance
    ~seed () =
  let problem = instance_problem ~scale ~tolerance instance in
  (* A corked pass stalls: few (or zero) moves are made before the head
     of the zero-gain bucket blocks selection.  The telling statistics
     are therefore moves per pass and the rate of entirely empty
     passes, alongside the quality collapse. *)
  let table =
    Table.make
      ~headers:
        [ "CLIP variant"; "min/avg cut"; "moves/pass"; "empty passes/run" ]
  in
  List.iter
    (fun (config, name) ->
      let rng = Rng.create seed in
      let cuts = Array.make runs 0 in
      let moves = ref 0 and passes = ref 0 and empties = ref 0 in
      for r = 0 to runs - 1 do
        let res = Fm.run_random_start ~config rng problem in
        cuts.(r) <- res.Fm.cut;
        moves := !moves + res.Fm.stats.Fm.moves;
        passes := !passes + res.Fm.stats.Fm.passes;
        empties := !empties + res.Fm.stats.Fm.empty_passes
      done;
      Table.add_row table
        [
          name;
          Descriptive.min_avg cuts;
          Printf.sprintf "%.0f" (float_of_int !moves /. float_of_int (max 1 !passes));
          Printf.sprintf "%.2f" (float_of_int !empties /. float_of_int runs);
        ])
    [
      (Fm_config.reported_clip, "Reported CLIP (no fix)");
      (Fm_config.strong_clip, "Our CLIP (corking fix)");
    ];
  table
