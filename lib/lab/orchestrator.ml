module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Engine = Hypart_engine.Engine
module Machine = Hypart_engine.Machine
module Parallel = Hypart_engine.Parallel
module Tel = Hypart_telemetry.Control
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace

type outcome = {
  jobs : int;
  cached : int;
  executed : int;
  dropped : int;
}

(* One generated problem per distinct (instance, scale, tolerance),
   shared by every job of the campaign; the fingerprint is computed
   once alongside it. *)
let build_problems (manifest : Manifest.t) =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (e : Manifest.experiment) ->
      List.iter
        (fun instance ->
          let k = (instance, e.Manifest.scale, e.Manifest.tolerance) in
          if not (Hashtbl.mem table k) then begin
            let h = Suite.instance ~scale:e.Manifest.scale instance in
            let problem = Problem.make ~tolerance:e.Manifest.tolerance h in
            Hashtbl.add table k (problem, Fingerprint.of_instance h)
          end)
        e.Manifest.instances)
    manifest.Manifest.experiments;
  table

let problem_of table (job : Manifest.job) =
  Hashtbl.find table
    ( job.Manifest.instance,
      job.Manifest.experiment.Manifest.scale,
      job.Manifest.experiment.Manifest.tolerance )

(* engines are resolved by name at execution time; the calling binary
   registers them (Hypart_engines.init) — the lab layer itself stays
   below the engine implementations in the dependency order, so new
   engine families (e.g. the memetic layer, which itself builds on the
   lab store) can register without a cycle *)
let run ?domains ~store_dir ~(manifest : Manifest.t) () =
  Trace.span "lab.campaign" @@ fun () ->
  let jobs = Manifest.jobs manifest in
  let problems = build_problems manifest in
  let store = Run_store.open_store store_dir in
  Fun.protect ~finally:(fun () -> Run_store.close store) @@ fun () ->
  let cached, pending =
    List.partition
      (fun job ->
        let _, instance_fp = problem_of problems job in
        Run_store.find store ~key:(Manifest.job_key ~instance_fp job) <> None)
      jobs
  in
  if Tel.is_enabled () then begin
    Metrics.incr "lab.jobs" ~by:(List.length jobs);
    Metrics.incr "lab.jobs_cached" ~by:(List.length cached)
  end;
  let pending = Array.of_list pending in
  let run_one i =
    let job = pending.(i) in
    let problem, instance_fp = problem_of problems job in
    let engine = Engine.find_exn job.Manifest.engine in
    let rng = Rng.create job.Manifest.job_seed in
    let result, seconds =
      Machine.cpu_time (fun () -> Engine.run engine rng problem None)
    in
    ignore
      (Run_store.record store ~engine:job.Manifest.engine
         ~config:(Manifest.job_config job) ~instance:instance_fp
         ~seed:job.Manifest.job_seed ~cut:result.Engine.Result.cut
         ~legal:result.Engine.Result.legal ~seconds);
    if Tel.is_enabled () then Metrics.incr "lab.runs"
  in
  (* shard by job index: each job carries its own derived seed, so the
     results are bit-identical for any domain count and only the append
     order in the file varies (the report is order-independent) *)
  if pending <> [||] then
    ignore
      (Parallel.map_seeds ?domains
         ~seeds:(List.init (Array.length pending) Fun.id)
         run_one);
  {
    jobs = List.length jobs;
    cached = List.length cached;
    executed = Array.length pending;
    dropped = Run_store.dropped store;
  }
