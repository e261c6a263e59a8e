module H = Hypart_hypergraph.Hypergraph
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Engine = Hypart_engine.Engine
module Machine = Hypart_engine.Machine
module Rng = Hypart_rng.Rng
module Run_store = Hypart_lab.Run_store
module Fingerprint = Hypart_lab.Fingerprint

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

type outcome = { jobs : int; cached : int; executed : int; dropped : int }

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

(* Walk one instance's chain.  [on_cell] sees every (step, key-side)
   cell; when [execute] is set the engines actually run and fresh
   records go into [store], otherwise only the delta/patch replay
   happens (the store-only report path). *)
type cell = {
  step : int;  (** 0 = the base from-scratch run *)
  role : string;  (** "warm" | "scratch" | "base" *)
  key : string;
  ops : int;
}

let fold_chain p ~instance ~execute ~store ~on_cell =
  let config = config_fp p ~instance in
  let h0 = Suite.instance ~scale:p.scale instance in
  let fp0 = Fingerprint.of_instance h0 in
  let cached = ref 0 and executed = ref 0 in
  (* [run ()] returns the engine result and its CPU seconds *)
  let lookup_or_run ~role ~step ~ops ~engine ~instance ~seed ~run =
    let key = Run_store.key ~engine ~config ~instance ~seed in
    let record =
      match Run_store.find store ~key with
      | Some r ->
        incr cached;
        Some r
      | None when not execute -> None
      | None ->
        let result, seconds = run () in
        incr executed;
        Some
          (Run_store.record store ~engine ~config ~instance ~seed
             ~cut:result.Engine.Result.cut ~legal:result.Engine.Result.legal
             ~seconds ~stats:result.Engine.Result.stats)
    in
    on_cell { step; role; key; ops } record
  in
  (* base run: needed both as a record and as the chain's first prior.
     An ECO flow starts from a carefully optimized full run, so the
     base is a multistart best-of-4 (a single unlucky start would
     handicap the whole warm chain).  On a warm store the record is
     served from the store and the assignment is recomputed
     (bit-identical by the seeded-run contract); only the stored
     timing is ever reported. *)
  let base_seed = job_seed p ~instance ~role:"base" ~step:0 in
  let base_problem = Problem.make ~tolerance:p.tolerance h0 in
  let base_starts = 4 in
  let run_base () =
    let best = ref None and total = ref 0. in
    for s = 0 to base_starts - 1 do
      let seed =
        Fingerprint.mix_seed ~base:base_seed [ "start"; string_of_int s ]
      in
      let r, secs =
        Machine.cpu_time (fun () ->
            Engine.run Hypart_multilevel.Ml_engines.mlclip (Rng.create seed)
              base_problem None)
      in
      total := !total +. secs;
      match !best with
      | Some b when not (Engine.Result.better r b) -> ()
      | _ -> best := Some r
    done;
    (Option.get !best, !total)
  in
  let base_result = ref None in
  lookup_or_run ~role:"base" ~step:0 ~ops:0 ~engine:scratch_engine
    ~instance:fp0 ~seed:base_seed ~run:(fun () ->
      let result, seconds = run_base () in
      base_result := Some result;
      (result, seconds));
  let prior =
    if execute then begin
      let result =
        match !base_result with Some r -> r | None -> fst (run_base ())
      in
      Some (Bipartition.assignment result.Engine.Result.solution)
    end
    else None
  in
  let rec step i h fp prior =
    if i <= p.steps then begin
      let drng =
        Rng.create
          (Fingerprint.mix_seed ~base:p.seed
             [ "eco"; instance; "delta"; string_of_int i ])
      in
      let delta =
        Delta_gen.perturb ~base_fingerprint:fp ~rng:drng ~fraction:p.fraction h
      in
      let patch = Patch.apply ~base:h ~base_fingerprint:fp delta in
      let ops = Delta.num_ops delta in
      let warm_seed = job_seed p ~instance ~role:"warm" ~step:i in
      let scratch_seed = job_seed p ~instance ~role:"scratch" ~step:i in
      let run_warm () =
        Eco.run ~config:(eco_config p) ~engine:Eco_engines.eco_fm
          ~scratch:Hypart_multilevel.Ml_engines.mlclip ~seed:warm_seed
          ~prior:(Option.get prior) patch
      in
      let warm_outcome = ref None in
      lookup_or_run ~role:"warm" ~step:i ~ops ~engine:warm_engine
        ~instance:patch.Patch.fingerprint ~seed:warm_seed ~run:(fun () ->
          let o = run_warm () in
          warm_outcome := Some o;
          (o.Eco.result, o.Eco.seconds));
      lookup_or_run ~role:"scratch" ~step:i ~ops ~engine:scratch_engine
        ~instance:patch.Patch.fingerprint ~seed:scratch_seed ~run:(fun () ->
          let problem =
            Problem.make ~tolerance:p.tolerance patch.Patch.hypergraph
          in
          Machine.cpu_time (fun () ->
              Engine.run Hypart_multilevel.Ml_engines.mlclip
                (Rng.create scratch_seed) problem None));
      let prior' =
        if execute then begin
          (* the chain continues from the warm result; a stored record
             recomputes it (deterministic), a fresh run reuses it *)
          let o =
            match !warm_outcome with Some o -> o | None -> run_warm ()
          in
          Some (Bipartition.assignment o.Eco.result.Engine.Result.solution)
        end
        else None
      in
      step (i + 1) patch.Patch.hypergraph patch.Patch.fingerprint prior'
    end
  in
  step 1 h0 fp0 prior;
  (!cached, !executed)

let run p ~store_dir =
  Eco_engines.register ();
  let store = Run_store.open_store store_dir in
  Fun.protect
    ~finally:(fun () -> Run_store.close store)
    (fun () ->
      let cached = ref 0 and executed = ref 0 in
      List.iter
        (fun instance ->
          let c, e =
            fold_chain p ~instance ~execute:true ~store
              ~on_cell:(fun _ _ -> ())
          in
          cached := !cached + c;
          executed := !executed + e)
        p.instances;
      {
        jobs = List.length p.instances * ((2 * p.steps) + 1);
        cached = !cached;
        executed = !executed;
        dropped = Run_store.dropped store;
      })

let report p ~store_dir =
  let store = Run_store.load store_dir in
  let b = Buffer.create 4096 in
  Printf.bprintf b "# eco campaign\n\n";
  Printf.bprintf b
    "scale %.9g, %d steps of %.2f%% perturbation, tolerance %.9g, radius \
     %d, fallback fraction %.9g, seed %d\n\n"
    p.scale p.steps (100. *. p.fraction) p.tolerance p.radius
    p.fallback_fraction p.seed;
  List.iter
    (fun instance ->
      Printf.bprintf b "## %s (scale %.9g)\n\n" instance p.scale;
      Printf.bprintf b
        "| step | ops | warm cut | scratch cut | warm s | scratch s |\n";
      Printf.bprintf b "|---:|---:|---:|---:|---:|---:|\n";
      let cells = Hashtbl.create 32 in
      ignore
        (fold_chain p ~instance ~execute:false ~store
           ~on_cell:(fun cell record ->
             Hashtbl.replace cells (cell.step, cell.role) (cell, record)));
      let fmt_cut = function
        | Some r ->
          Printf.sprintf "%d%s" r.Run_store.cut
            (if r.Run_store.legal then "" else " (ILLEGAL)")
        | None -> "pending"
      in
      let fmt_s = function
        | Some r -> Printf.sprintf "%.4f" r.Run_store.seconds
        | None -> "-"
      in
      (match Hashtbl.find_opt cells (0, "base") with
      | Some (_, r) ->
        Printf.bprintf b "| base | - | - | %s | - | %s |\n" (fmt_cut r)
          (fmt_s r)
      | None -> ());
      let warm_s = ref 0.
      and scratch_s = ref 0.
      and complete = ref true
      and final = ref None in
      for i = 1 to p.steps do
        let warm = Hashtbl.find_opt cells (i, "warm") in
        let scratch = Hashtbl.find_opt cells (i, "scratch") in
        let record = Option.map snd in
        let wr = Option.join (record warm)
        and sr = Option.join (record scratch) in
        let ops =
          match warm with Some (c, _) -> string_of_int c.ops | None -> "-"
        in
        Printf.bprintf b "| %d | %s | %s | %s | %s | %s |\n" i ops
          (fmt_cut wr) (fmt_cut sr) (fmt_s wr) (fmt_s sr);
        (match (wr, sr) with
        | Some w, Some s ->
          warm_s := !warm_s +. w.Run_store.seconds;
          scratch_s := !scratch_s +. s.Run_store.seconds;
          if i = p.steps then final := Some (w, s)
        | _ -> complete := false)
      done;
      if !complete && p.steps > 0 then begin
        let speedup = !scratch_s /. Float.max !warm_s 1e-9 in
        Printf.bprintf b
          "\ntotals: warm %.4fs, scratch %.4fs, speedup %.1fx\n" !warm_s
          !scratch_s speedup;
        match !final with
        | Some (w, s) ->
          Printf.bprintf b "final cut: warm %d vs scratch %d (%s)\n\n"
            w.Run_store.cut s.Run_store.cut
            (if w.Run_store.cut <= s.Run_store.cut then "equal-or-better"
             else "worse")
        | None -> Printf.bprintf b "\n"
      end
      else Printf.bprintf b "\n(campaign incomplete: run `hypart lab run \
                             --campaign eco` first)\n\n")
    p.instances;
  Buffer.contents b
