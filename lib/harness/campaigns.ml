module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Engine = Hypart_engine.Engine
module Problem = Hypart_partition.Problem
module Descriptive = Hypart_stats.Descriptive
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config
module Fm_engines = Hypart_fm.Fm_engines
module Ml = Hypart_multilevel.Ml_partitioner
module Ml_engines = Hypart_multilevel.Ml_engines
module Matching = Hypart_multilevel.Matching
module Initial = Hypart_partition.Initial
module Manifest = Hypart_lab.Manifest
module Orchestrator = Hypart_lab.Orchestrator
module Report = Hypart_lab.Report
module Run_store = Hypart_lab.Run_store
module Table = Hypart_lab.Table

(* -- Table 1 -- *)

(* The 24 variants in table order, each with its (family, updates,
   bias) row labels. *)
let table1_variants =
  let families =
    [
      ("Flat LIFO FM", "flat", `Flat, Fm_config.strong_lifo);
      ("Flat CLIP FM", "clip", `Flat, Fm_config.strong_clip);
      ("ML LIFO FM", "ml", `Ml, Fm_config.strong_lifo);
      ("ML CLIP FM", "mlclip", `Ml, Fm_config.strong_clip);
    ]
  in
  let updates = [ (Fm_config.All_delta_gain, "All-dg"); (Fm_config.Nonzero_only, "Nonzero") ] in
  let biases = [ (Fm_config.Away, "Away"); (Fm_config.Part0, "Part0"); (Fm_config.Toward, "Toward") ] in
  List.concat_map
    (fun (family, stem, kind, base) ->
      List.concat_map
        (fun (update, u) ->
          List.map
            (fun (bias, b) ->
              let fm = Fm_config.with_bias bias (Fm_config.with_update update base) in
              let name = String.lowercase_ascii (Printf.sprintf "%s:%s:%s" stem u b) in
              let description = Printf.sprintf "%s, %s updates, %s bias (Table 1)" family u b in
              let engine =
                match kind with
                | `Flat -> Fm_engines.of_config ~name ~description fm
                | `Ml -> Ml_engines.of_config ~name ~description { Ml.default with Ml.fm }
              in
              ((family, u, b), engine))
            biases)
        updates)
    families

let table1 ?tolerance ~scale ~runs ~instances () =
  Manifest.experiment ?tolerance ~scale ~runs "table1" (List.map snd table1_variants) instances

let table1_table report (e : Manifest.experiment) =
  let table = Table.make ~headers:([ "Updates"; "Bias" ] @ e.instances) in
  List.iteri
    (fun i ((family, u, b), engine) ->
      if i mod 6 = 0 then begin
        if i > 0 then Table.add_separator table;
        Table.add_span table family;
        Table.add_separator table
      end;
      Table.add_row table
        ([ u; b ] @ List.map (fun instance -> Report.min_avg report e engine ~instance) e.instances))
    table1_variants;
  table

(* -- Tables 2 and 3 -- *)

let algorithms =
  [
    (Fm_engines.reported, "Reported LIFO");
    (Fm_engines.flat, "Our LIFO");
    (Fm_engines.reported_clip, "Reported CLIP");
    (Fm_engines.clip, "Our CLIP");
  ]

let table23 which ~scale ~runs ~instances =
  let name, engines =
    match which with
    | `Lifo -> ("table2", [ Fm_engines.reported; Fm_engines.flat ])
    | `Clip -> ("table3", [ Fm_engines.reported_clip; Fm_engines.clip ])
  in
  List.map
    (fun tolerance -> Manifest.experiment ~tolerance ~scale ~runs name engines instances)
    [ 0.02; 0.10 ]

let table23_table report experiments =
  let instances = (List.hd experiments).Manifest.instances in
  let table = Table.make ~headers:([ "Tolerance"; "Algorithm" ] @ instances) in
  List.iter
    (fun (e : Manifest.experiment) ->
      List.iter
        (fun engine ->
          let label = List.assq engine algorithms in
          Table.add_row table
            ([ Printf.sprintf "%02.0f%%" (100. *. e.tolerance); label ]
            @ List.map (fun instance -> Report.min_avg report e engine ~instance) instances))
        e.engines)
    experiments;
  table

(* -- Tables 4 and 5 -- *)

let default_configs = [ 1; 2; 4; 8; 16; 100 ]

let tables45 ~scale ~repeats ~configs ~instances ~tolerance =
  Manifest.experiment ~tolerance
    ~protocols:(List.map (fun n -> Manifest.Multistart n) configs)
    ~scale ~runs:repeats "tables45" [ Ml_engines.mlclip ] instances

(* -- head-to-head comparison -- *)

let compare ?tolerance ~scale ~runs ~engine_a ~engine_b ~instance () =
  Hypart_engines.init ();
  Manifest.experiment ?tolerance ~scale ~runs "compare"
    [ Engine.find_exn engine_a; Engine.find_exn engine_b ]
    [ instance ]

(* -- §3.2 figures -- *)

let figure_engines =
  [
    (Fm_engines.flat, "Flat LIFO FM");
    (Fm_engines.clip, "Flat CLIP FM");
    (Ml_engines.ml, "ML LIFO FM");
    (Ml_engines.mlclip, "ML CLIP FM");
  ]

let figures ~scale ~starts ~instances =
  Manifest.experiment ~scale ~runs:starts "figures" (List.map fst figure_engines) instances

let figure_label engine = List.assq engine figure_engines

(* -- ablation -- *)

(* One block per design dimension, a row per setting.  A setting equal
   to a registered engine is that engine, so the rows sharing a
   baseline share its runs. *)
let ablation_rows =
  let variant make dimension setting x =
    make
      ~name:(Printf.sprintf "ablation:%s=%s" dimension setting)
      ~description:(Printf.sprintf "ablation: %s = %s" dimension setting)
      x
  in
  let flat = variant Fm_engines.of_config and ml = variant Ml_engines.of_config in
  let initial setting generate =
    variant Engine.make "initial" setting (fun rng problem initial ->
        let s = match initial with Some s -> s | None -> generate rng problem in
        Fm_engines.of_result (Fm.run ~config:Fm_config.strong_lifo rng problem s))
  in
  let lifo = Fm_config.strong_lifo and clip = Fm_config.strong_clip in
  [
    ( "insertion",
      [
        ("lifo", Fm_engines.flat);
        ("fifo", flat "insertion" "fifo" { lifo with insertion = Fifo });
        ("random", flat "insertion" "random" { lifo with insertion = Random });
      ] );
    ( "illegal head",
      [
        ("skip-side", Fm_engines.flat);
        ("skip-bucket", flat "illegal-head" "skip-bucket" { lifo with illegal_head = Skip_bucket });
        ("scan-bucket", flat "illegal-head" "scan-bucket" { lifo with illegal_head = Scan_bucket });
      ] );
    ( "oversized cells",
      [
        ("excluded (fix)", Fm_engines.clip);
        ("inserted (cork)", flat "oversized" "inserted" { clip with exclude_oversized = false });
      ] );
    ( "pass best",
      [
        ("first", flat "pass-best" "first" { lifo with pass_best = First });
        ("last", flat "pass-best" "last" { lifo with pass_best = Last });
        ("most-balanced", Fm_engines.flat);
      ] );
    ( "initial solution",
      [
        ("random", Fm_engines.flat);
        ("area-levelled", initial "area-levelled" Initial.area_levelled);
        ("cluster-grown", initial "cluster-grown" Initial.cluster_grown);
      ] );
    ( "coarsening",
      [
        ("edge-coarsening", Ml_engines.ml);
        ("heavy-edge", ml "coarsening" "heavy-edge" { Ml.ml_lifo with scheme = Matching.Heavy_edge });
        ( "first-choice",
          ml "coarsening" "first-choice" { Ml.ml_lifo with scheme = Matching.First_choice } );
        ( "hyperedge",
          ml "coarsening" "hyperedge" { Ml.ml_lifo with scheme = Matching.Hyperedge_coarsening } );
      ] );
    ( "refinement",
      [
        ("LIFO full", Ml_engines.ml);
        ( "LIFO boundary-only",
          ml "refinement" "boundary-only" { Ml.ml_lifo with boundary_refinement = true } );
        ("CLIP full", Ml_engines.mlclip);
        ( "CLIP boundary-only",
          ml "refinement" "clip-boundary-only" { Ml.ml_clip with boundary_refinement = true } );
      ] );
  ]

let ablation ~scale ~runs ~instance =
  Manifest.experiment ~scale ~runs "ablation"
    (List.concat_map (fun (_, rows) -> List.map snd rows) ablation_rows)
    [ instance ]

let ablation_table report (e : Manifest.experiment) =
  let instance = List.hd e.instances in
  let table = Table.make ~headers:[ "Dimension"; "Setting"; "min/avg cut"; "CPU s/run" ] in
  List.iteri
    (fun i (dimension, rows) ->
      if i > 0 then Table.add_separator table;
      List.iter
        (fun (setting, engine) ->
          Table.add_row table
            [
              dimension;
              setting;
              Report.min_avg report e engine ~instance;
              Report.cpu report e engine ~instance;
            ])
        rows)
    ablation_rows;
  table

(* -- §2.1 and §2.3 studies -- *)

(* the mean of an engine stat over the stored runs that carry it: runs
   recorded before stats were stored carry none *)
let stat_mean runs name =
  match List.filter_map (fun (r : Run_store.record) -> List.assoc_opt name r.stats) runs with
  | [] -> None
  | xs -> Some (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

let shown fmt = function Some v -> Printf.sprintf fmt v | None -> "-"

let corking_variants =
  [ (Fm_engines.reported_clip, "Reported CLIP (no fix)"); (Fm_engines.clip, "Our CLIP (corking fix)") ]

let corking ~scale ~runs ~instance =
  Manifest.experiment ~scale ~runs "corking" (List.map fst corking_variants) [ instance ]

(* A corked pass stalls: few (or zero) moves are made before the head
   of the zero-gain bucket blocks selection.  The telling statistics
   are therefore moves per pass and the rate of entirely empty passes,
   alongside the quality collapse. *)
let corking_table report (e : Manifest.experiment) =
  let instance = List.hd e.instances in
  let table =
    Table.make ~headers:[ "CLIP variant"; "min/avg cut"; "moves/pass"; "empty passes/run" ]
  in
  List.iter
    (fun (engine, label) ->
      let runs = Report.runs report e engine ~instance in
      let moves_per_pass =
        match (stat_mean runs "moves", stat_mean runs "passes") with
        | Some moves, Some passes -> Some (moves /. Float.max 1. passes)
        | _ -> None
      in
      Table.add_row table
        [
          label;
          Report.min_avg report e engine ~instance;
          shown "%.0f" moves_per_pass;
          shown "%.2f" (stat_mean runs "empty_passes");
        ])
    corking_variants;
  table

(* [flat] with a [fraction] of the vertices fixed, alternating sides as
   terminal propagation produces them.  The fixed set is sampled from
   one constant seed, so it is the same in every run. *)
let fixed_engine fraction =
  let pct = Printf.sprintf "%.0f" (100. *. fraction) in
  Engine.make ~name:("fixed:" ^ pct)
    ~description:(Printf.sprintf "flat FM with %s%% of the vertices fixed" pct)
    (fun rng (problem : Problem.t) initial ->
      let h = problem.hypergraph in
      let n = Hypart_hypergraph.Hypergraph.num_vertices h in
      let fixed = Array.make n (-1) in
      let k = int_of_float (fraction *. float_of_int n) in
      Array.iteri
        (fun i v -> fixed.(v) <- i mod 2)
        (Rng.sample_distinct (Rng.create 1) ~n:k ~universe:n);
      let tolerance = problem.balance.Hypart_partition.Balance.tolerance in
      Engine.run Fm_engines.flat rng (Problem.make ~fixed ~tolerance h) initial)

let fixed_engines = List.map (fun f -> (f, fixed_engine f)) [ 0.0; 0.02; 0.10; 0.25; 0.50 ]

let fixed ~scale ~runs ~instance =
  Manifest.experiment ~tolerance:0.10 ~scale ~runs "fixed" (List.map snd fixed_engines) [ instance ]

let fixed_table report (e : Manifest.experiment) =
  let instance = List.hd e.instances in
  let table =
    Table.make ~headers:[ "fixed %"; "min/avg cut"; "stddev"; "avg passes"; "CPU s/run" ]
  in
  List.iter
    (fun (fraction, engine) ->
      let runs = Report.runs report e engine ~instance in
      let cuts = Array.of_list (List.map (fun (r : Run_store.record) -> float_of_int r.cut) runs) in
      Table.add_row table
        [
          Printf.sprintf "%.0f" (100. *. fraction);
          Report.min_avg report e engine ~instance;
          Printf.sprintf "%.1f" (Descriptive.stddev cuts);
          shown "%.1f" (stat_mean runs "passes");
          Report.cpu report e engine ~instance;
        ])
    fixed_engines;
  table

let regime ~big =
  let at scale instances =
    Manifest.experiment ~scale ~runs:1 "regime" [ Ml_engines.ml ] instances
  in
  at 1.0 [ "ibm01"; "ibm05"; "ibm10"; "ibm14"; "ibm18" ]
  :: (if big then [ at 0.28 [ "ibm18" ] ] else [])

let regime_table report experiments =
  let table =
    Table.make ~headers:[ "Instance"; "cells"; "ML cut"; "CPU s"; "budget s"; "fits?" ]
  in
  List.iter
    (fun (e : Manifest.experiment) ->
      List.iter
        (fun instance ->
          let cells = Suite.cells ~scale:e.scale instance in
          (* 1 minute per 6000 cells for the whole placement;
             partitioning gets roughly the level-0 share of the
             recursive bisection, which the paper quotes as ~5s at 25k
             cells: budget = cells/5000 s *)
          let budget = float_of_int cells /. 5000. in
          let r = List.hd (Report.runs report e Ml_engines.ml ~instance) in
          let cpu = r.seconds *. r.machine_factor in
          Table.add_row table
            [
              (if e.scale = 1.0 then instance else Printf.sprintf "%s x%.2f" instance e.scale);
              string_of_int cells;
              string_of_int r.cut;
              Printf.sprintf "%.1f" cpu;
              Printf.sprintf "%.1f" budget;
              (if cpu <= budget then "yes" else "NO");
            ])
        e.instances)
    experiments;
  table

(* -- built-in campaigns -- *)

let names =
  [ "smoke"; "tables"; "multistart"; "figures"; "ablation"; "engines"; "corking"; "memetic" ]

let campaign ?(scale = 8.0) ?(runs = 20) ~seed name =
  Hypart_engines.init ();
  let registry ?tolerance exp_name engines instances =
    Manifest.experiment ?tolerance ~scale ~runs exp_name (List.map Engine.find_exn engines) instances
  in
  let experiments =
    match name with
    | "smoke" -> [ registry "smoke" ~tolerance:0.10 [ "flat" ] [ "ibm01" ] ]
    | "tables" ->
      let instances = Suite.names_small in
      (table1 ~scale ~runs ~instances () :: table23 `Lifo ~scale ~runs ~instances)
      @ table23 `Clip ~scale ~runs ~instances
    | "multistart" ->
      List.map
        (fun tolerance ->
          tables45 ~scale ~repeats:runs ~configs:default_configs ~instances:Suite.names_eval
            ~tolerance)
        [ 0.02; 0.10 ]
    | "figures" -> [ figures ~scale ~starts:runs ~instances:Suite.names_small ]
    | "ablation" -> [ ablation ~scale ~runs ~instance:"ibm01" ]
    | "engines" ->
      [
        registry "engines"
          [ "flat"; "clip"; "ml"; "mlclip"; "lookahead"; "kl"; "sa"; "spectral" ]
          [ "ibm01" ];
      ]
    | "corking" -> [ corking ~scale ~runs ~instance:"ibm01" ]
    | "memetic" ->
      (* the population search against its plain multilevel baseline:
         the timed report's CPU column shows whether it pays for its
         extra evaluations *)
      [ registry "memetic" [ "memetic_ml"; "mlclip" ] Suite.names_small ]
    | other ->
      invalid_arg
        (Printf.sprintf "Campaigns.campaign: unknown campaign %s (known: %s)" other
           (String.concat " | " names))
  in
  Manifest.make ~name ~seed ~experiments

let execute ?domains ~store manifest =
  let s = match store with Some dir -> Run_store.open_store dir | None -> Run_store.in_memory () in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Run_store.close s)
      (fun () -> Orchestrator.run ?domains ~store:s ~manifest ())
  in
  (Report.create ~instance_fps:outcome.instance_fps s manifest, outcome)
