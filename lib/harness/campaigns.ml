module Suite = Hypart_generator.Ibm_suite
module Engine = Hypart_engine.Engine
module Fm_config = Hypart_fm.Fm_config
module Fm_engines = Hypart_fm.Fm_engines
module Ml = Hypart_multilevel.Ml_partitioner
module Ml_engines = Hypart_multilevel.Ml_engines
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

(* -- built-in campaigns -- *)

let names = [ "smoke"; "tables"; "multistart"; "ablation"; "corking"; "memetic" ]

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
    | "ablation" ->
      [
        registry "ablation"
          [ "flat"; "clip"; "ml"; "mlclip"; "lookahead"; "kl"; "sa"; "spectral" ]
          [ "ibm01" ];
      ]
    | "corking" -> [ registry "corking" [ "clip"; "reported-clip" ] [ "ibm01" ] ]
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
