module Suite = Hypart_generator.Ibm_suite

type experiment = {
  exp_name : string;
  engines : string list;
  instances : string list;
  scale : float;
  tolerance : float;
  runs : int;
}

type t = { name : string; seed : int; experiments : experiment list }

let validate_experiment e =
  if e.runs <= 0 then
    invalid_arg
      (Printf.sprintf "Manifest: experiment %s: runs must be positive (got %d)"
         e.exp_name e.runs);
  if e.scale <= 0. then
    invalid_arg
      (Printf.sprintf "Manifest: experiment %s: scale must be positive (got %g)"
         e.exp_name e.scale);
  if e.engines = [] then
    invalid_arg (Printf.sprintf "Manifest: experiment %s: no engines" e.exp_name);
  if e.instances = [] then
    invalid_arg (Printf.sprintf "Manifest: experiment %s: no instances" e.exp_name)

let make ~name ~seed ~experiments =
  List.iter validate_experiment experiments;
  { name; seed; experiments }

(* -- built-in campaigns -- *)

let campaign_names =
  [ "smoke"; "tables"; "multistart"; "ablation"; "corking"; "memetic" ]

(* The paper's four named variants plus the deliberately weak
   "reported" baselines — all registry names, so lab results line up
   with `hypart engines` and the CLI. *)
let campaign ?(scale = 8.0) ?(runs = 20) ~seed name =
  let exp exp_name ?(tolerance = 0.02) engines instances =
    { exp_name; engines; instances; scale; tolerance; runs }
  in
  let experiments =
    match name with
    | "smoke" -> [ exp "smoke" ~tolerance:0.10 [ "flat" ] [ "ibm01" ] ]
    | "tables" ->
      [
        exp "table1" [ "flat"; "clip"; "ml"; "mlclip" ] Suite.names_small;
        exp "table2-3@2" [ "reported"; "flat"; "reported-clip"; "clip" ]
          Suite.names_small;
        exp "table2-3@10" ~tolerance:0.10
          [ "reported"; "flat"; "reported-clip"; "clip" ]
          Suite.names_small;
      ]
    | "multistart" ->
      [
        exp "table4" [ "mlclip"; "hmetis" ] Suite.names_eval;
        exp "table5" ~tolerance:0.10 [ "mlclip"; "hmetis" ] Suite.names_eval;
      ]
    | "ablation" ->
      [
        exp "ablation"
          [ "flat"; "clip"; "ml"; "mlclip"; "lookahead"; "kl"; "sa"; "spectral" ]
          [ "ibm01" ];
      ]
    | "corking" -> [ exp "corking" [ "clip"; "reported-clip" ] [ "ibm01" ] ]
    | "memetic" ->
      (* memetic campaigns vs the plain multilevel baseline on the
         small instances; best-of-k and CPU totals come out of the
         stored per-run population, so the report's (cost, CPU) Pareto
         view answers whether the population search pays for itself *)
      [ exp "memetic" [ "memetic_ml"; "mlclip" ] Suite.names_small ]
    | other ->
      invalid_arg
        (Printf.sprintf "Manifest.campaign: unknown campaign %s (known: %s)"
           other
           (String.concat " | " campaign_names))
  in
  make ~name ~seed ~experiments

(* -- expansion -- *)

type job = {
  experiment : experiment;
  engine : string;
  instance : string;
  run_index : int;
  job_seed : int;
}

let job_seed ~base experiment ~engine ~instance ~run_index =
  Fingerprint.mix_seed ~base
    [ experiment.exp_name; engine; instance; string_of_int run_index ]

let jobs t =
  List.concat_map
    (fun experiment ->
      List.concat_map
        (fun engine ->
          List.concat_map
            (fun instance ->
              List.init experiment.runs (fun run_index ->
                  {
                    experiment;
                    engine;
                    instance;
                    run_index;
                    job_seed =
                      job_seed ~base:t.seed experiment ~engine ~instance
                        ~run_index;
                  }))
            experiment.instances)
        experiment.engines)
    t.experiments

let cell_id job =
  Printf.sprintf "%s/%s/%s" job.experiment.exp_name job.engine job.instance

let config_fingerprint ~scale ~tolerance ~protocol extra =
  Fingerprint.of_pairs
    ([
       ("scale", Printf.sprintf "%.17g" scale);
       ("tolerance", Printf.sprintf "%.17g" tolerance);
       ("protocol", protocol);
     ]
    @ extra)

let job_config job =
  config_fingerprint ~scale:job.experiment.scale
    ~tolerance:job.experiment.tolerance ~protocol:"single-start" []

let job_key ~instance_fp job =
  Run_store.key ~engine:job.engine ~config:(job_config job)
    ~instance:instance_fp ~seed:job.job_seed
