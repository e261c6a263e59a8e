module H = Hypart_hypergraph.Hypergraph
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Engine = Hypart_engine.Engine
module Machine = Hypart_engine.Machine
module Rng = Hypart_rng.Rng
module Run_store = Hypart_lab.Run_store
module Fingerprint = Hypart_lab.Fingerprint
module Orchestrator = Hypart_lab.Orchestrator

type params = {
  scale : float;
  steps : int;
  fraction : float;
  tolerance : float;
  radius : int;
  fallback_fraction : float;
  instances : string list;
  seed : int;
}

let params ?(scale = 8.0) ?(steps = 8) ~seed () =
  {
    scale;
    steps;
    fraction = 0.01;
    tolerance = 0.02;
    radius = 1;
    fallback_fraction = 0.25;
    instances = Suite.names_small;
    seed;
  }

let warm_engine = "eco_fm"
let scratch_engine = "mlclip"

(* one config fingerprint for the whole campaign: per-step identity
   travels in the chained instance fingerprint, so adding steps later
   reuses every already-stored prefix record *)
let config_fp p ~instance =
  Fingerprint.of_pairs
    [
      ("proto", "eco-v1");
      ("campaign", "eco");
      ("instance", instance);
      ("scale", Printf.sprintf "%.9g" p.scale);
      ("fraction", Printf.sprintf "%.9g" p.fraction);
      ("tolerance", Printf.sprintf "%.9g" p.tolerance);
      ("radius", string_of_int p.radius);
      ("fallback", Printf.sprintf "%.9g" p.fallback_fraction);
    ]

let job_seed p ~instance ~role ~step =
  Fingerprint.mix_seed ~base:p.seed
    [ "eco"; instance; role; string_of_int step ]

let eco_config p =
  {
    Eco.radius = p.radius;
    fallback_fraction = p.fallback_fraction;
    tolerance = p.tolerance;
  }

(* Walk one instance's chain and return the base run's stored record
   and, per step, its delta's op count and its warm and scratch
   records.  With [execute] a cell missing from [store] runs and is
   recorded; without, only the delta/patch replay that re-derives the
   keys happens (the store-only report path). *)
let chain p ~execute store ~instance =
  let config = config_fp p ~instance in
  let h0 = Suite.instance ~scale:p.scale instance in
  let fp0 = Fingerprint.of_instance h0 in
  (* [run ()] returns the engine result and its CPU seconds *)
  let cell ~engine ~instance ~seed run =
    let key = Run_store.key ~engine ~config ~instance ~seed in
    match Run_store.find store ~key with
    | None when execute ->
      let (result : Engine.Result.t), seconds = run () in
      Some
        (Run_store.record store ~engine ~config ~instance ~seed ~cut:result.cut
           ~legal:result.legal ~seconds ~stats:result.stats)
    | found -> found
  in
  (* base run: needed both as a record and as the chain's first prior.
     An ECO flow starts from a carefully optimized full run, so the
     base is a multistart best-of-4 (a single unlucky start would
     handicap the whole warm chain). *)
  let base_seed = job_seed p ~instance ~role:"base" ~step:0 in
  let base_problem = Problem.make ~tolerance:p.tolerance h0 in
  let base =
    lazy
      (let best = ref None and total = ref 0. in
       for s = 0 to 3 do
         let seed = Fingerprint.mix_seed ~base:base_seed [ "start"; string_of_int s ] in
         let r, secs =
           Machine.cpu_time (fun () ->
               Engine.run Hypart_multilevel.Ml_engines.mlclip (Rng.create seed) base_problem None)
         in
         total := !total +. secs;
         match !best with
         | Some b when not (Engine.Result.better r b) -> ()
         | _ -> best := Some r
       done;
       (Option.get !best, !total))
  in
  let base_record =
    cell ~engine:scratch_engine ~instance:fp0 ~seed:base_seed (fun () -> Lazy.force base)
  in
  (* The chain continues from each step's warm result.  A run is forced
     only when a later missing cell needs its result: a stored one is
     then recomputed (bit-identical by the seeded-run contract), and
     only the stored timing is ever reported. *)
  let prior result = Bipartition.assignment result.Engine.Result.solution in
  let rec step i h fp prior_of =
    if i > p.steps then []
    else begin
      let drng =
        Rng.create (Fingerprint.mix_seed ~base:p.seed [ "eco"; instance; "delta"; string_of_int i ])
      in
      let delta = Delta_gen.perturb ~base_fingerprint:fp ~rng:drng ~fraction:p.fraction h in
      let patch = Patch.apply ~base:h ~base_fingerprint:fp delta in
      let warm_seed = job_seed p ~instance ~role:"warm" ~step:i in
      let scratch_seed = job_seed p ~instance ~role:"scratch" ~step:i in
      let warm =
        lazy
          (Eco.run ~config:(eco_config p) ~engine:Eco_engines.eco_fm
             ~scratch:Hypart_multilevel.Ml_engines.mlclip ~seed:warm_seed
             ~prior:(Lazy.force prior_of) patch)
      in
      let warm_record =
        cell ~engine:warm_engine ~instance:patch.fingerprint ~seed:warm_seed (fun () ->
            let o = Lazy.force warm in
            (o.Eco.result, o.Eco.seconds))
      in
      let scratch_record =
        cell ~engine:scratch_engine ~instance:patch.fingerprint ~seed:scratch_seed (fun () ->
            let problem = Problem.make ~tolerance:p.tolerance patch.hypergraph in
            Machine.cpu_time (fun () ->
                Engine.run Hypart_multilevel.Ml_engines.mlclip (Rng.create scratch_seed) problem
                  None))
      in
      (Delta.num_ops delta, warm_record, scratch_record)
      :: step (i + 1) patch.hypergraph patch.fingerprint (lazy (prior (Lazy.force warm).Eco.result))
    end
  in
  (base_record, step 1 h0 fp0 (lazy (prior (fst (Lazy.force base)))))

let run p store =
  let before = Run_store.size store in
  List.iter (fun instance -> ignore (chain p ~execute:true store ~instance)) p.instances;
  let jobs = List.length p.instances * ((2 * p.steps) + 1) in
  let executed = Run_store.size store - before in
  {
    Orchestrator.jobs;
    cached = jobs - executed;
    executed;
    dropped = Run_store.dropped store;
    instance_fps = [];
  }

let report p store =
  let b = Buffer.create 4096 in
  Printf.bprintf b "# eco campaign\n\n";
  Printf.bprintf b
    "scale %.9g, %d steps of %.2f%% perturbation, tolerance %.9g, radius %d, fallback fraction \
     %.9g, seed %d\n\n"
    p.scale p.steps (100. *. p.fraction) p.tolerance p.radius p.fallback_fraction p.seed;
  let cut = function
    | Some (r : Run_store.record) -> Printf.sprintf "%d%s" r.cut (if r.legal then "" else " (ILLEGAL)")
    | None -> "pending"
  in
  let seconds = function Some (r : Run_store.record) -> Printf.sprintf "%.4f" r.seconds | None -> "-" in
  List.iter
    (fun instance ->
      Printf.bprintf b "## %s (scale %.9g)\n\n" instance p.scale;
      Printf.bprintf b "| step | ops | warm cut | scratch cut | warm s | scratch s |\n";
      Printf.bprintf b "|---:|---:|---:|---:|---:|---:|\n";
      let base, steps = chain p ~execute:false store ~instance in
      Printf.bprintf b "| base | - | - | %s | - | %s |\n" (cut base) (seconds base);
      List.iteri
        (fun i (ops, w, s) ->
          Printf.bprintf b "| %d | %d | %s | %s | %s | %s |\n" (i + 1) ops (cut w) (cut s)
            (seconds w) (seconds s))
        steps;
      let complete =
        List.filter_map (function _, Some w, Some s -> Some (w, s) | _ -> None) steps
      in
      if p.steps > 0 && List.length complete = p.steps then begin
        let total f = List.fold_left (fun acc x -> acc +. (f x).Run_store.seconds) 0. complete in
        let warm_s = total fst and scratch_s = total snd in
        Printf.bprintf b "\ntotals: warm %.4fs, scratch %.4fs, speedup %.1fx\n" warm_s scratch_s
          (scratch_s /. Float.max warm_s 1e-9);
        let w, s = List.nth complete (p.steps - 1) in
        Printf.bprintf b "final cut: warm %d vs scratch %d (%s)\n\n" w.cut s.cut
          (if w.cut <= s.cut then "equal-or-better" else "worse")
      end
      else Printf.bprintf b "\n(campaign incomplete: run `hypart lab run --campaign eco` first)\n\n")
    p.instances;
  Buffer.contents b
