module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Engine = Hypart_engine.Engine
module Machine = Hypart_engine.Machine
module Parallel = Hypart_engine.Parallel
module Ml = Hypart_multilevel.Ml_partitioner
module Fingerprint = Hypart_lab.Fingerprint
module Run_store = Hypart_lab.Run_store
module Rng = Hypart_rng.Rng
module Tel = Hypart_telemetry.Control
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace
module Event_log = Hypart_telemetry.Event_log
module Jsonl = Hypart_telemetry.Jsonl

type config = {
  base_engine : string;
  population : int;
  generations : int;
  recombinations : int;
  immigrants : int;
  starts : int;
  tolerance : float;
  ml : Ml.config;
  domains : int option;
}

let default =
  {
    base_engine = "mlclip";
    population = 12;
    generations = 8;
    recombinations = 6;
    immigrants = 2;
    starts = 1;
    tolerance = 0.02;
    ml = Ml.ml_clip;
    domains = None;
  }

let campaign_fingerprint config ~seed ~instance =
  Fingerprint.of_pairs
    [
      ("proto", "evolve-v1");
      ("engine", config.base_engine);
      ("instance", instance);
      ("population", string_of_int config.population);
      ("recombinations", string_of_int config.recombinations);
      ("immigrants", string_of_int config.immigrants);
      ("starts", string_of_int config.starts);
      ("tolerance", Printf.sprintf "%.9g" config.tolerance);
      ("seed", string_of_int seed);
    ]

type generation = {
  g_index : int;
  g_best_cut : int;
  g_best_legal : bool;
  g_evaluated : int;
  g_replayed : int;
  g_seconds : float;
  g_cum_seconds : float;
}

type outcome = {
  best : Population.member;
  history : generation list;
  evaluated : int;
  replayed : int;
  total_seconds : float;
  campaign : string;
}

let trajectory o =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "campaign %s\n" o.campaign);
  List.iter
    (fun g ->
      Buffer.add_string b
        (Printf.sprintf "gen %d best %d legal %b\n" g.g_index g.g_best_cut
           g.g_best_legal))
    o.history;
  let best = o.best.Population.candidate in
  let sides = best.Pop_log.assignment in
  let canonical =
    String.init (Array.length sides) (fun i ->
        if sides.(i) = 0 then '0' else '1')
  in
  Buffer.add_string b
    (Printf.sprintf "final %d legal %b assignment %s\n"
       best.cut best.legal
       (Fingerprint.of_string canonical));
  Buffer.contents b

(* one candidate of a generation: computed in this run, with the
   engine stats its run record stores, or replayed from the log *)
type candidate =
  | Fresh of Pop_log.entry * (string * float) list
  | Replayed of Pop_log.entry

let entry = function Fresh (e, _) | Replayed e -> e

(* a random distinct pair of [arr] (two members or more), winner first *)
let duel rng arr =
  let n = Array.length arr in
  let i = Rng.int rng n in
  let j =
    let j = Rng.int rng (n - 1) in
    if j >= i then j + 1 else j
  in
  let x = arr.(i) and y = arr.(j) in
  if Population.beats y x then (y, x) else (x, y)

let tournament rng arr = if Array.length arr = 1 then arr.(0) else fst (duel rng arr)

(* two tournament-selected parents, distinct whenever the snapshot has
   two members (if the second tournament picks the first parent again,
   its opponent stands in) *)
let pick_parents rng arr =
  let a = tournament rng arr in
  if Array.length arr = 1 then (a, a)
  else begin
    let w, l = duel rng arr in
    (a, if w.Population.id = a.Population.id then l else w)
  end

let run ?store ?executor ?initial config ~seed problem =
  let executor =
    match executor with
    | Some e -> e
    | None -> Executor.in_process ?domains:config.domains ()
  in
  let h = problem.Problem.hypergraph in
  let instance_fp = Fingerprint.of_instance h in
  let campaign = campaign_fingerprint config ~seed ~instance:instance_fp in
  (* the daemon's key for the same seeded job: campaign evaluations
     share one content-address space with `hypart serve` *)
  let eval_fp =
    Fingerprint.seeded_config ~tolerance:config.tolerance ~starts:config.starts
  in
  let log, runs =
    match store with
    | None -> (None, None)
    | Some dir ->
      (Some (Pop_log.open_log ~dir ~campaign), Some (Run_store.open_store dir))
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Pop_log.close log;
      Option.iter Run_store.close runs)
  @@ fun () ->
  Trace.begin_span "evolve.campaign";
  Metrics.incr "evolve.campaigns";
  Event_log.record "evolve.campaign_start"
    [
      ("campaign", Jsonl.String campaign);
      ("engine", Jsonl.String config.base_engine);
      ("executor", Jsonl.String executor.Executor.name);
      ("population", Jsonl.Int config.population);
      ("generations", Jsonl.Int config.generations);
      ("seed", Jsonl.Int seed);
    ];
  let slot_seed g s =
    Fingerprint.mix_seed ~base:seed
      [ instance_fp; "g" ^ string_of_int g; "s" ^ string_of_int s ]
  in
  let find_logged g s =
    match log with None -> None | Some l -> Pop_log.find l ~gen:g ~slot:s
  in
  let replayed e =
    Metrics.incr "evolve.replayed";
    Replayed e
  in
  (* executor-backed evaluations for every pending (slot, kind, job) *)
  let evaluate g pending =
    match pending with
    | [] -> []
    | _ ->
      let jobs = List.map (fun (_, _, j) -> j) pending in
      let results = executor.Executor.eval problem jobs in
      List.map2
        (fun (slot, kind, (j : Executor.job)) res ->
          match res with
          | Error msg ->
            failwith
              (Printf.sprintf "evolve: evaluation failed (gen %d slot %d): %s"
                 g slot msg)
          | Ok (o : Executor.outcome) ->
            Metrics.incr "evolve.evaluations";
            Fresh
              ( {
                  Pop_log.gen = g;
                  slot;
                  kind;
                  seed = j.seed;
                  cut = o.cut;
                  legal = o.legal;
                  seconds = o.seconds;
                  assignment = o.assignment;
                },
                o.stats ))
        pending results
  in
  let pop = Population.create ~capacity:config.population in
  Option.iter
    (fun sol ->
      ignore
        (Population.insert pop
           {
             Pop_log.gen = -1;
             slot = 0;
             kind = "initial";
             seed = 0;
             cut = Bipartition.cut h sol;
             legal = Problem.is_legal problem sol;
             seconds = 0.;
             assignment = Bipartition.assignment sol;
           }
           (Bipartition.copy sol)))
    initial;
  (* persist (run record first, then population log: a crash between
     the two costs one recomputed candidate on resume, never a store
     record) and admit one candidate *)
  let persist_and_admit c =
    let e = entry c in
    (match c with
    | Replayed _ -> ()
    | Fresh (_, stats) ->
      Option.iter
        (fun rs ->
          let engine, config =
            if e.kind = "recombine" then ("memetic-recombine", campaign)
            else (config.base_engine, eval_fp)
          in
          ignore
            (Run_store.record rs ~engine ~config ~instance:instance_fp
               ~seed:e.seed ~cut:e.cut ~legal:e.legal ~seconds:e.seconds
               ~stats))
        runs;
      Option.iter (fun l -> Pop_log.append l e) log;
      Metrics.incr ("evolve." ^ e.kind ^ "s"));
    ignore (Population.insert pop e (Bipartition.make h e.assignment))
  in
  let cum_seconds = ref 0. in
  let evaluated = ref 0 in
  let replayed_total = ref 0 in
  let prev_best = ref None in
  let history = ref [] in
  let finish_generation g candidates =
    let by_slot =
      List.sort (fun a b -> compare (entry a).slot (entry b).slot) candidates
    in
    List.iter persist_and_admit by_slot;
    let fresh =
      List.length
        (List.filter (function Fresh _ -> true | Replayed _ -> false) by_slot)
    in
    let replay = List.length by_slot - fresh in
    let seconds =
      List.fold_left (fun acc c -> acc +. (entry c).seconds) 0. by_slot
    in
    evaluated := !evaluated + fresh;
    replayed_total := !replayed_total + replay;
    cum_seconds := !cum_seconds +. seconds;
    let b = (Option.get (Population.best pop)).Population.candidate in
    let improved =
      match !prev_best with
      | None -> true
      | Some (cut, legal) ->
        (b.legal && not legal) || (b.legal = legal && b.cut < cut)
    in
    prev_best := Some (b.cut, b.legal);
    if Tel.is_enabled () then begin
      Metrics.incr "evolve.generations";
      Metrics.set_gauge "evolve.best_cut" (float_of_int b.cut);
      Metrics.observe "evolve.generation_seconds" seconds
    end;
    Event_log.record "evolve.generation"
      [
        ("campaign", Jsonl.String campaign);
        ("gen", Jsonl.Int g);
        ("best_cut", Jsonl.Int b.cut);
        ("best_legal", Jsonl.Bool b.legal);
        ("evaluated", Jsonl.Int fresh);
        ("replayed", Jsonl.Int replay);
        ("seconds", Jsonl.Float seconds);
      ];
    if improved && g > 0 then
      Event_log.record "evolve.improved"
        [
          ("campaign", Jsonl.String campaign);
          ("gen", Jsonl.Int g);
          ("cut", Jsonl.Int b.cut);
        ];
    history :=
      {
        g_index = g;
        g_best_cut = b.cut;
        g_best_legal = b.legal;
        g_evaluated = fresh;
        g_replayed = replay;
        g_seconds = seconds;
        g_cum_seconds = !cum_seconds;
      }
      :: !history
  in
  (* generation 0: seed the population with independent evaluations *)
  let () =
    let logged, pending =
      List.partition_map
        (fun s ->
          match find_logged 0 s with
          | Some e -> Left (replayed e)
          | None ->
            Right
              ( s,
                "seed",
                {
                  Executor.engine = config.base_engine;
                  seed = slot_seed 0 s;
                  starts = config.starts;
                } ))
        (List.init config.population Fun.id)
    in
    finish_generation 0 (logged @ evaluate 0 pending)
  in
  (* recombination generations: offspring from the snapshot at
     generation start, plus fresh immigrants; per-slot derived RNGs
     keep every candidate independent of scheduling *)
  for g = 1 to config.generations do
    Trace.begin_span "evolve.generation";
    let snapshot = Array.of_list (Population.members pop) in
    let rec_logged, rec_pending =
      List.partition_map
        (fun s ->
          match find_logged g s with
          | Some e -> Left (replayed e)
          | None -> Right s)
        (List.init config.recombinations Fun.id)
    in
    let rec_fresh =
      Parallel.map_seeds ?domains:config.domains ~seeds:rec_pending (fun s ->
          let rng = Rng.create (slot_seed g s) in
          let pa, pb = pick_parents rng snapshot in
          let (r : Engine.Result.t), seconds =
            Machine.cpu_time (fun () ->
                Ml.recombine ~config:config.ml rng problem
                  pa.Population.solution pb.Population.solution)
          in
          Metrics.incr "evolve.evaluations";
          Fresh
            ( {
                Pop_log.gen = g;
                slot = s;
                kind = "recombine";
                seed = slot_seed g s;
                cut = r.cut;
                legal = r.legal;
                seconds;
                assignment = Bipartition.assignment r.solution;
              },
              r.stats ))
    in
    let imm_logged, imm_pending =
      List.partition_map
        (fun s ->
          match find_logged g s with
          | Some e -> Left (replayed e)
          | None ->
            Right
              ( s,
                "immigrant",
                {
                  Executor.engine = config.base_engine;
                  seed = slot_seed g s;
                  starts = config.starts;
                } ))
        (List.init config.immigrants (fun i -> config.recombinations + i))
    in
    let imm_fresh = evaluate g imm_pending in
    finish_generation g (rec_logged @ rec_fresh @ imm_logged @ imm_fresh);
    Trace.end_span "evolve.generation"
      ~args:
        [
          ("gen", float_of_int g);
          ( "best_cut",
            float_of_int
              (Option.get (Population.best pop)).Population.candidate.cut );
        ]
  done;
  let best = Option.get (Population.best pop) in
  Event_log.record "evolve.campaign_done"
    [
      ("campaign", Jsonl.String campaign);
      ("best_cut", Jsonl.Int best.Population.candidate.cut);
      ("evaluated", Jsonl.Int !evaluated);
      ("replayed", Jsonl.Int !replayed_total);
      ("seconds", Jsonl.Float !cum_seconds);
    ];
  Trace.end_span "evolve.campaign"
    ~args:
      [
        ("best_cut", float_of_int best.Population.candidate.cut);
        ("evaluated", float_of_int !evaluated);
      ];
  {
    best;
    history = List.rev !history;
    evaluated = !evaluated;
    replayed = !replayed_total;
    total_seconds = !cum_seconds;
    campaign;
  }

let memetic_ml =
  (* a compact campaign, small enough to compare as one start *)
  let config =
    { default with population = 6; generations = 4; recombinations = 3; immigrants = 1 }
  in
  Engine.make ~name:"memetic_ml"
    ~description:
      "memetic multilevel: population search with cut-respecting \
       recombination over mlclip evaluations"
    (fun rng problem initial ->
      (* one non-negative campaign seed drawn from the harness RNG
         keeps the whole campaign a deterministic function of it *)
      let seed = Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2) in
      let o = run ?initial config ~seed problem in
      let { Population.solution; candidate; _ } = o.best in
      {
        Engine.Result.solution;
        cut = candidate.cut;
        legal = candidate.legal;
        stats =
          [
            ("generations", float_of_int (List.length o.history - 1));
            ("evaluations", float_of_int o.evaluated);
          ];
      })
