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
  instance_fps : ((string * float) * string) list;
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
          let k = (instance, e.scale, e.tolerance) in
          if not (Hashtbl.mem table k) then begin
            let h = Suite.instance ~scale:e.scale instance in
            Hashtbl.add table k (Problem.make ~tolerance:e.tolerance h, Fingerprint.of_instance h)
          end)
        e.instances)
    manifest.experiments;
  table

let problem_of table (job : Manifest.job) =
  Hashtbl.find table (job.instance, job.experiment.scale, job.experiment.tolerance)

(* A job's protocol, from a fresh RNG on its derived seed. *)
let execute problem (job : Manifest.job) =
  let rng = Rng.create job.job_seed in
  match job.protocol with
  | Single_start -> Engine.run job.engine rng problem None
  | Multistart starts ->
    (* the engine improves the best start once more from it: for the
       multilevel engines, one V-cycle *)
    let polish_best best =
      let r = Engine.run job.engine rng problem (Some best.Engine.Result.solution) in
      if Engine.Result.better r best then r else best
    in
    fst (Engine.multistart ~polish_best job.engine rng problem ~starts)

let run ?domains ~store ~(manifest : Manifest.t) () =
  Trace.span "lab.campaign" @@ fun () ->
  let problems = build_problems manifest in
  (* one job per key: an engine listed twice in an experiment, as in
     [compare flat flat], is one set of runs *)
  let seen = Hashtbl.create 64 in
  let jobs =
    List.filter_map
      (fun job ->
        let key = Manifest.job_key ~instance_fp:(snd (problem_of problems job)) job in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some (key, job)
        end)
      (Manifest.jobs manifest)
  in
  let cached, pending = List.partition (fun (key, _) -> Run_store.find store ~key <> None) jobs in
  if Tel.is_enabled () then begin
    Metrics.incr "lab.jobs" ~by:(List.length jobs);
    Metrics.incr "lab.jobs_cached" ~by:(List.length cached)
  end;
  let pending = Array.of_list (List.map snd pending) in
  let run_one i =
    let job = pending.(i) in
    let problem, instance_fp = problem_of problems job in
    let result, seconds = Machine.cpu_time (fun () -> execute problem job) in
    ignore
      (Run_store.record store ~engine:(Engine.name job.engine)
         ~config:(Manifest.job_config job) ~instance:instance_fp ~seed:job.job_seed
         ~cut:result.Engine.Result.cut ~legal:result.Engine.Result.legal ~seconds
         ~stats:result.Engine.Result.stats);
    if Tel.is_enabled () then Metrics.incr "lab.runs"
  in
  (* shard by job index: each job carries its own derived seed, so the
     results are bit-identical for any domain count and only the append
     order in the file varies (the report is order-independent) *)
  if pending <> [||] then
    ignore
      (Parallel.map_seeds ?domains ~seeds:(List.init (Array.length pending) Fun.id) run_one);
  {
    jobs = List.length jobs;
    cached = List.length cached;
    executed = Array.length pending;
    dropped = Run_store.dropped store;
    instance_fps =
      Hashtbl.fold
        (fun (instance, scale, _) (_, fp) acc -> ((instance, scale), fp) :: acc)
        problems [];
  }
