module Engine = Hypart_engine.Engine

type protocol = Single_start | Multistart of int

type experiment = {
  exp_name : string;
  engines : Engine.t list;
  instances : string list;
  scale : float;
  tolerance : float;
  protocols : protocol list;
  runs : int;
}

type t = { name : string; seed : int; experiments : experiment list }

let experiment ?(tolerance = 0.02) ?(protocols = [ Single_start ]) ~scale ~runs
    exp_name engines instances =
  { exp_name; engines; instances; scale; tolerance; protocols; runs }

let validate_experiment e =
  let fail fmt =
    Printf.ksprintf
      (fun msg -> invalid_arg (Printf.sprintf "Manifest: experiment %s: %s" e.exp_name msg))
      fmt
  in
  if e.runs <= 0 then fail "runs must be positive (got %d)" e.runs;
  if e.scale <= 0. then fail "scale must be positive (got %g)" e.scale;
  if e.engines = [] then fail "no engines";
  if e.instances = [] then fail "no instances";
  if e.protocols = [] then fail "no protocols";
  List.iter
    (function
      | Multistart n when n < 1 -> fail "starts must be positive (got %d)" n
      | _ -> ())
    e.protocols

let make ~name ~seed ~experiments =
  List.iter validate_experiment experiments;
  { name; seed; experiments }

(* -- expansion -- *)

type job = {
  experiment : experiment;
  engine : Engine.t;
  instance : string;
  protocol : protocol;
  run_index : int;
  job_seed : int;
}

(* A multistart repetition's seed names no engine: the Tables 4–5
   store keys have always been derived this way. *)
let job_seed ~base e engine ~instance protocol run_index =
  let run = string_of_int run_index in
  Fingerprint.mix_seed ~base
    (match protocol with
    | Single_start -> [ e.exp_name; Engine.name engine; instance; run ]
    | Multistart starts -> [ e.exp_name; instance; string_of_int starts; run ])

let cell_jobs t experiment engine ~instance protocol =
  List.init experiment.runs (fun run_index ->
      {
        experiment;
        engine;
        instance;
        protocol;
        run_index;
        job_seed = job_seed ~base:t.seed experiment engine ~instance protocol run_index;
      })

let jobs t =
  List.concat_map
    (fun e ->
      List.concat_map
        (fun engine ->
          List.concat_map
            (fun instance ->
              List.concat_map (cell_jobs t e engine ~instance) e.protocols)
            e.instances)
        e.engines)
    t.experiments

let job_config job =
  let protocol, extra =
    match job.protocol with
    | Single_start -> ("single-start", [])
    | Multistart starts -> ("multistart+vcycle", [ ("starts", string_of_int starts) ])
  in
  Fingerprint.of_pairs
    ([
       ("scale", Printf.sprintf "%.17g" job.experiment.scale);
       ("tolerance", Printf.sprintf "%.17g" job.experiment.tolerance);
       ("protocol", protocol);
     ]
    @ extra)

let job_key ~instance_fp job =
  Run_store.key ~engine:(Engine.name job.engine) ~config:(job_config job)
    ~instance:instance_fp ~seed:job.job_seed
