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
module Eco_lab = Hypart_delta.Eco_lab

(* -- views -- *)

type section =
  | Tabular of { slug : string; title : string; table : Table.t; notes : string }
  | Markdown of string

let tabular ?(notes = "") slug title table = Tabular { slug; title; table; notes }

let render ?(csv = false) sections =
  let body = function
    | Markdown text -> text
    | Tabular { table; notes; _ } -> (if csv then Table.to_csv table else Table.render table) ^ notes
  in
  match sections with
  | [ section ] -> body section
  | _ ->
    String.concat ""
      (List.map
         (function
           | Tabular { title; _ } as s -> Printf.sprintf "\n=== %s ===\n%s" title (body s)
           | s -> body s)
         sections)

(* Experiments and the sections that render them from the store. *)
type part = { experiments : Manifest.experiment list; sections : Report.t -> section list }

let experiments p = p.experiments

(* experiments rendered as one table *)
let one_table ~slug ~title experiments table =
  { experiments; sections = (fun report -> [ tabular slug title (table report) ]) }

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

let table1 ~scale ~runs ~instances =
  let e = Manifest.experiment ~scale ~runs "table1" (List.map snd table1_variants) instances in
  one_table ~slug:"table1" ~title:"Table 1 (implicit decisions)" [ e ] (fun report ->
      let table = Table.make ~headers:([ "Updates"; "Bias" ] @ instances) in
      List.iteri
        (fun i ((family, u, b), engine) ->
          if i mod 6 = 0 then begin
            if i > 0 then Table.add_separator table;
            Table.add_span table family;
            Table.add_separator table
          end;
          Table.add_row table
            ([ u; b ] @ List.map (fun instance -> Report.min_avg report e engine ~instance) instances))
        table1_variants;
      table)

(* -- Tables 2 and 3 -- *)

let algorithms =
  [
    (Fm_engines.reported, "Reported LIFO");
    (Fm_engines.flat, "Our LIFO");
    (Fm_engines.reported_clip, "Reported CLIP");
    (Fm_engines.clip, "Our CLIP");
  ]

let table23 which ~scale ~runs ~instances =
  let name, title, engines =
    match which with
    | `Lifo -> ("table2", "Table 2 (LIFO: reported vs ours)", [ Fm_engines.reported; Fm_engines.flat ])
    | `Clip ->
      ("table3", "Table 3 (CLIP: reported vs ours)", [ Fm_engines.reported_clip; Fm_engines.clip ])
  in
  let experiments =
    List.map
      (fun tolerance -> Manifest.experiment ~tolerance ~scale ~runs name engines instances)
      [ 0.02; 0.10 ]
  in
  one_table ~slug:name ~title experiments (fun report ->
      let table = Table.make ~headers:([ "Tolerance"; "Algorithm" ] @ instances) in
      List.iter
        (fun (e : Manifest.experiment) ->
          List.iter
            (fun engine ->
              Table.add_row table
                ([ Printf.sprintf "%02.0f%%" (100. *. e.tolerance); List.assq engine algorithms ]
                @ List.map (fun instance -> Report.min_avg report e engine ~instance) instances))
            engines)
        experiments;
      table)

(* -- Tables 4 and 5 -- *)

let default_configs = [ 1; 2; 4; 8; 16; 100 ]

(* the paper's Table 4 is the 2% run and Table 5 the 10% one *)
let tables45 ~scale ~repeats ~configs ~instances ~tolerance =
  let e =
    Manifest.experiment ~tolerance
      ~protocols:(List.map (fun n -> Manifest.Multistart n) configs)
      ~scale ~runs:repeats "tables45" [ Ml_engines.mlclip ] instances
  in
  let n = if tolerance = 0.10 then 5 else 4 in
  one_table ~slug:(Printf.sprintf "table%d" n)
    ~title:(Printf.sprintf "Table %d (multistart eval, %.0f%%)" n (100. *. tolerance))
    [ e ]
    (fun report -> Report.cut_cpu_table ~timing:true report e)

(* -- head-to-head comparison -- *)

let compare ~scale ~runs ~engine_a ~engine_b ~instance =
  Hypart_engines.init ();
  let e =
    Manifest.experiment ~scale ~runs "compare"
      [ Engine.find_exn engine_a; Engine.find_exn engine_b ]
      [ instance ]
  in
  let view report =
    let table, verdict = Report.compare ~timing:true report e ~instance in
    let notes = match verdict with Some v -> "\n" ^ v ^ "\n" | None -> "" in
    tabular ~notes "compare" (Printf.sprintf "Comparison (%s)" instance) table
  in
  { experiments = [ e ]; sections = (fun report -> [ view report ]) }

(* -- §3.2 figures -- *)

let figure_engines =
  [
    (Fm_engines.flat, "Flat LIFO FM");
    (Fm_engines.clip, "Flat CLIP FM");
    (Ml_engines.ml, "ML LIFO FM");
    (Ml_engines.mlclip, "ML CLIP FM");
  ]

let figures ~scale ~starts ~instances views =
  let e = Manifest.experiment ~scale ~runs:starts "figures" (List.map fst figure_engines) instances in
  let label engine = List.assq engine figure_engines in
  let view report = function
    | `Bsf instance ->
      tabular "fig_bsf"
        (Printf.sprintf "BSF curves (%s)" instance)
        (Report.bsf_table ~label report e ~instance)
    | `Pareto instance ->
      let table, frontier = Report.pareto ~label report e ~instance in
      let notes =
        String.concat ""
          ("\nnon-dominated frontier (cost, CPU s):\n"
          :: List.map
               (fun (label, cost, runtime) -> Printf.sprintf "  %-20s %8.1f %8.3f\n" label cost runtime)
               frontier)
      in
      tabular ~notes "fig_pareto" (Printf.sprintf "Pareto frontier (%s)" instance) table
    | `Ranking -> tabular "fig_ranking" "Ranking diagram" (Report.ranking_table ~label report e)
  in
  { experiments = [ e ]; sections = (fun report -> List.map (view report) views) }

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
        Fm.run ~config:Fm_config.strong_lifo rng problem s)
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
  let e =
    Manifest.experiment ~scale ~runs "ablation"
      (List.concat_map (fun (_, rows) -> List.map snd rows) ablation_rows)
      [ instance ]
  in
  one_table ~slug:"ablation" ~title:(Printf.sprintf "Ablations (%s)" instance) [ e ] (fun report ->
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
      table)

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

(* A corked pass stalls: few (or zero) moves are made before the head
   of the zero-gain bucket blocks selection.  The telling statistics
   are therefore moves per pass and the rate of entirely empty passes,
   alongside the quality collapse. *)
let corking ~scale ~runs ~instance =
  let e = Manifest.experiment ~scale ~runs "corking" (List.map fst corking_variants) [ instance ] in
  one_table ~slug:"corking" ~title:(Printf.sprintf "Corking diagnostic (%s)" instance) [ e ] (fun report ->
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
      table)

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
  let e =
    Manifest.experiment ~tolerance:0.10 ~scale ~runs "fixed" (List.map snd fixed_engines) [ instance ]
  in
  one_table ~slug:"fixed_terminals" ~title:(Printf.sprintf "Fixed terminals (%s)" instance) [ e ]
    (fun report ->
      let table =
        Table.make ~headers:[ "fixed %"; "min/avg cut"; "stddev"; "avg passes"; "CPU s/run" ]
      in
      List.iter
        (fun (fraction, engine) ->
          let runs = Report.runs report e engine ~instance in
          let cuts = List.map (fun (r : Run_store.record) -> float_of_int r.cut) runs in
          Table.add_row table
            [
              Printf.sprintf "%.0f" (100. *. fraction);
              Report.min_avg report e engine ~instance;
              (if cuts = [] then "-" else Printf.sprintf "%.1f" (Descriptive.stddev (Array.of_list cuts)));
              shown "%.1f" (stat_mean runs "passes");
              Report.cpu report e engine ~instance;
            ])
        fixed_engines;
      table)

let regime ~big =
  let at scale instances = Manifest.experiment ~scale ~runs:1 "regime" [ Ml_engines.ml ] instances in
  let experiments =
    at 1.0 [ "ibm01"; "ibm05"; "ibm10"; "ibm14"; "ibm18" ]
    :: (if big then [ at 0.28 [ "ibm18" ] ] else [])
  in
  one_table ~slug:"regime" ~title:"Runtime regimes (full-size instances)" experiments (fun report ->
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
                 recursive bisection, which the paper quotes as ~5s at
                 25k cells: budget = cells/5000 s *)
              let budget = float_of_int cells /. 5000. in
              let cut, cpu, fits =
                match Report.runs report e Ml_engines.ml ~instance with
                | [] -> ("pending", "-", "-")
                | r :: _ ->
                  let cpu = r.seconds *. r.machine_factor in
                  (string_of_int r.cut, Printf.sprintf "%.1f" cpu, if cpu <= budget then "yes" else "NO")
              in
              Table.add_row table
                [
                  (if e.scale = 1.0 then instance else Printf.sprintf "%s x%.2f" instance e.scale);
                  string_of_int cells;
                  cut;
                  cpu;
                  Printf.sprintf "%.1f" budget;
                  fits;
                ])
            e.instances)
        experiments;
      table)

(* -- campaigns -- *)

type t = {
  name : string;
  run : int option -> Run_store.t -> Orchestrator.outcome;
  view : ((string * float) * string) list option -> Run_store.t -> section list;
}

let name t = t.name
let run ?domains t store = t.run domains store
let view ?instance_fps t store = t.view instance_fps store

let make ~name ~seed parts =
  let manifest =
    Manifest.make ~name ~seed ~experiments:(List.concat_map (fun p -> p.experiments) parts)
  in
  {
    name;
    run = (fun domains store -> Orchestrator.run ?domains ~store ~manifest ());
    view =
      (fun instance_fps store ->
        let report = Report.create ?instance_fps store manifest in
        List.concat_map (fun p -> p.sections report) parts);
  }

let execute ?domains ~store t =
  Run_store.with_store store (fun s ->
      let outcome = run ?domains t s in
      (outcome, view ~instance_fps:outcome.instance_fps t s))

(* The paper's every table and figure: Tables 4–5 run at half size and
   the runtime regimes at the published sizes.  The flat-vs-multilevel
   crossover only shows on instances large enough that flat FM cannot
   reach multilevel quality, so the figures run at the base scale. *)
let all ~scale ~runs =
  let small = Suite.names_small in
  let t45 tolerance =
    tables45 ~scale:(scale *. 2.) ~repeats:5 ~configs:default_configs ~instances:Suite.names_eval
      ~tolerance
  in
  [
    table1 ~scale ~runs ~instances:small;
    table23 `Lifo ~scale ~runs ~instances:small;
    table23 `Clip ~scale ~runs ~instances:small;
    t45 0.02;
    t45 0.10;
    figures ~scale:(Float.max 1.0 (scale /. 8.)) ~starts:12 ~instances:small
      [ `Bsf "ibm03"; `Pareto "ibm03"; `Ranking ];
    ablation ~scale ~runs:10 ~instance:"ibm01";
    regime ~big:false;
    fixed ~scale ~runs:12 ~instance:"ibm01";
    corking ~scale ~runs:10 ~instance:"ibm01";
  ]

let names =
  [
    "smoke"; "tables"; "multistart"; "figures"; "ablation"; "engines"; "corking"; "fixed";
    "regime"; "memetic"; "eco"; "all";
  ]

let campaign ?(scale = 8.0) ?(runs = 20) ~seed name =
  Hypart_engines.init ();
  (* a registry-engine experiment in the generic layout *)
  let generic ?tolerance ~timing engines instances =
    {
      experiments =
        [ Manifest.experiment ?tolerance ~scale ~runs name (List.map Engine.find_exn engines) instances ];
      sections = (fun report -> [ Markdown (Report.generate ~timing report) ]);
    }
  in
  let small = Suite.names_small in
  let grid parts = make ~name ~seed parts in
  match name with
  | "smoke" -> grid [ generic ~tolerance:0.10 ~timing:false [ "flat" ] [ "ibm01" ] ]
  | "tables" ->
    grid
      [
        table1 ~scale ~runs ~instances:small;
        table23 `Lifo ~scale ~runs ~instances:small;
        table23 `Clip ~scale ~runs ~instances:small;
      ]
  | "multistart" ->
    grid
      (List.map
         (fun tolerance ->
           tables45 ~scale ~repeats:runs ~configs:default_configs ~instances:Suite.names_eval
             ~tolerance)
         [ 0.02; 0.10 ])
  | "figures" ->
    grid [ figures ~scale ~starts:runs ~instances:small [ `Bsf "ibm03"; `Pareto "ibm03"; `Ranking ] ]
  | "ablation" -> grid [ ablation ~scale ~runs ~instance:"ibm01" ]
  | "engines" ->
    grid
      [
        generic ~timing:true
          [ "flat"; "clip"; "ml"; "mlclip"; "lookahead"; "kl"; "sa"; "spectral" ]
          [ "ibm01" ];
      ]
  | "corking" -> grid [ corking ~scale ~runs ~instance:"ibm01" ]
  | "fixed" -> grid [ fixed ~scale ~runs ~instance:"ibm01" ]
  | "regime" -> grid [ regime ~big:false ]
  | "memetic" ->
    (* the population search against its plain multilevel baseline:
       the CPU column shows whether it pays for its extra evaluations *)
    grid [ generic ~timing:true [ "memetic_ml"; "mlclip" ] small ]
  | "eco" ->
    (* a chain, not a grid: its runner walks it, its view replays it *)
    let p = Eco_lab.params ~scale ~steps:runs ~seed () in
    {
      name;
      run = (fun _ store -> Eco_lab.run p store);
      view = (fun _ store -> [ Markdown (Eco_lab.report p store) ]);
    }
  | "all" -> grid (all ~scale ~runs)
  | other ->
    invalid_arg
      (Printf.sprintf "Campaigns.campaign: unknown campaign %s (known: %s)" other
         (String.concat " | " names))
