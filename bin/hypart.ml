(* Command-line interface: instance generation, partitioning, and the
   regeneration target for every table and figure of the paper.  See
   DESIGN.md for the experiment index. *)

open Cmdliner
module H = Hypart_hypergraph.Hypergraph
module Io = Hypart_hypergraph.Netlist_io
module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config
module Ml = Hypart_multilevel.Ml_partitioner
module Table = Hypart_lab.Table
module Machine = Hypart_engine.Machine
module Engine = Hypart_engine.Engine
module Telemetry = Hypart_telemetry.Telemetry
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace
module Event_log = Hypart_telemetry.Event_log
module Bench_diff = Hypart_telemetry.Bench_diff
module Reporter = Hypart_telemetry.Reporter
module Server = Hypart_server.Server
module Client = Hypart_server.Client
module Fleet = Hypart_server.Fleet
module Evolve = Hypart_evolve.Evolve
module Exec = Hypart_evolve.Executor
module Pareto = Hypart_stats.Pareto
module Delta = Hypart_delta.Delta
module Patch = Hypart_delta.Patch
module Eco = Hypart_delta.Eco
module Delta_gen = Hypart_delta.Delta_gen
module Kway_objective = Hypart_partition.Kway_objective
module Balance = Hypart_partition.Balance

(* populate the engine registry before any term is evaluated *)
let () = Hypart_engines.init ()

(* ---------------- shared flags ---------------- *)

(* engine names are parsed against the registry, so the error message
   and the docs always list exactly the registered engines *)
let engine_conv =
  let parse s =
    match Engine.find s with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown engine %s (registered: %s)" s
              (String.concat " | " (Engine.names ()))))
  in
  let print fmt e = Format.pp_print_string fmt (Engine.name e) in
  Arg.conv ~docv:"ENGINE" (parse, print)

let engine_list_doc () = String.concat " | " (Engine.names ())

(* validated argument parsers: a bad value is a one-line cmdliner error,
   never a raw exception from deep inside an experiment *)
let pos_int_conv what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n ->
      Error (`Msg (Printf.sprintf "%s must be a positive integer (got %d)" what n))
    | None ->
      Error (`Msg (Printf.sprintf "%s must be a positive integer (got %s)" what s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let pos_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. && Float.is_finite f -> Ok f
    | Some f -> Error (`Msg (Printf.sprintf "%s must be positive (got %g)" what f))
    | None -> Error (`Msg (Printf.sprintf "%s must be a number (got %s)" what s))
  in
  Arg.conv ~docv:"S" (parse, Format.pp_print_float)

(* output paths are validated at parse time: an unknown directory fails
   the command before hours of experiments run, not at exit *)
let out_path_conv =
  let parse s =
    if s = "" then Error (`Msg "empty output path")
    else
      let dir = Filename.dirname s in
      if Sys.file_exists dir && Sys.is_directory dir then Ok s
      else Error (`Msg (Printf.sprintf "directory %s does not exist" dir))
  in
  Arg.conv ~docv:"FILE" (parse, Format.pp_print_string)

(* a number that [ok] accepts; [range] names the accepted values *)
let float_conv what range ok =
  let parse s =
    match float_of_string_opt s with
    | Some f when ok f -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "%s must be in %s (got %s)" what range s))
  in
  Arg.conv ~docv:"F" (parse, Format.pp_print_float)

(* the tolerance range is Balance's own, so a value the engines would
   refuse (or NaN, which every comparison lets through) never parses *)
let tolerance_conv = float_conv "tolerance" "[0, 1)" Balance.valid_tolerance

let is_suite_name s = match Suite.find s with _ -> true | exception Not_found -> false

let unknown_instance s =
  Printf.sprintf "unknown instance %s (expected ibm01 .. ibm18)" s

let suite_conv =
  let parse s = if is_suite_name s then Ok s else Error (`Msg (unknown_instance s)) in
  Arg.conv ~docv:"NAME" (parse, Format.pp_print_string)

(* Each flag is declared once below; a command that needs another
   default or its own wording passes them in. *)

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let scale_of default =
  Arg.(
    value
    & opt (pos_float_conv "scale") default
    & info [ "scale" ]
        ~docv:"S"
        ~doc:
          "Instance size divisor; 1.0 regenerates the published ISPD98 sizes, \
           larger values shrink instances proportionally.")

let scale_t = scale_of 4.0

let runs_t default =
  Arg.(
    value
    & opt (pos_int_conv "runs") default
    & info [ "runs" ] ~docv:"N"
        ~doc:"Independent single-start trials per table cell (the paper used 100).")

let repeats_t ~doc default =
  Arg.(value & opt (pos_int_conv "repeats") default & info [ "repeats" ] ~docv:"N" ~doc)

let csv_t =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of an aligned table.")

let instances_t default =
  Arg.(
    value
    & opt (list suite_conv) default
    & info [ "instances" ] ~docv:"NAMES" ~doc:"Comma-separated instance names.")

let suite_instance_t =
  Arg.(
    value & opt suite_conv "ibm01"
    & info [ "instance" ] ~docv:"NAME" ~doc:"Suite instance (ibm01 .. ibm18).")

let tol_t ?(doc = "Balance tolerance, in [0, 1).") default =
  Arg.(value & opt tolerance_conv default & info [ "tol" ] ~docv:"T" ~doc)

let engine_t ?(name = "engine")
    ?(doc = Printf.sprintf "Partitioning engine: %s." (engine_list_doc ())) default =
  Arg.(value & opt engine_conv default & info [ name ] ~docv:"E" ~doc)

let starts_t ?(doc = "Independent starts.") default =
  Arg.(value & opt (pos_int_conv "starts") default & info [ "starts" ] ~docv:"N" ~doc)

let domains_t doc =
  Arg.(
    value
    & opt (some (pos_int_conv "domains")) None
    & info [ "domains" ] ~docv:"D" ~doc)

let attempts_t ~doc default =
  Arg.(value & opt (pos_int_conv "attempts") default & info [ "attempts" ] ~docv:"N" ~doc)

let store_t doc = Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let partition_out_t =
  Arg.(
    value
    & opt (some out_path_conv) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the winning partition (one side per line).")

(* Common setup for every command: the domain-safe Logs reporter
   (replacing the non-thread-safe [Logs.format_reporter]) and the
   telemetry sinks.  Output files are written at exit so a command only
   pays for collection when one of the flags is given. *)
let common_t =
  let setup verbose trace metrics profile events =
    Reporter.setup
      ~level:(if verbose then Some Logs.Debug else Some Logs.Warning)
      ();
    (* the flight recorder is independent of the metrics/trace switch:
       recording is gated on the sink being installed *)
    (match events with
    | None -> ()
    | Some path -> (
      match Event_log.open_log path with
      | log ->
        Event_log.install log;
        at_exit (fun () -> Event_log.close log)
      | exception Sys_error msg ->
        Printf.eprintf "hypart: cannot open events file: %s\n%!" msg));
    if trace <> None || metrics <> None || profile then begin
      (* spans only when something reads them: a --metrics-only daemon
         would otherwise buffer every span it records until exit *)
      if trace <> None || profile then Telemetry.enable ()
      else Telemetry.enable_metrics ();
      let write_or_warn what f path =
        try f path
        with Sys_error msg ->
          Printf.eprintf "hypart: cannot write %s file: %s\n%!" what msg
      in
      at_exit (fun () ->
          Option.iter
            (write_or_warn "trace" (fun path ->
                 Trace.write path;
                 Printf.eprintf "wrote trace to %s (%d spans)\n%!" path
                   (Trace.event_count ())))
            trace;
          Option.iter
            (write_or_warn "metrics" (fun path ->
                 Metrics.write path;
                 Printf.eprintf "wrote metrics to %s\n%!" path))
            metrics;
          if profile then begin
            print_newline ();
            Format.printf "%a@?" Telemetry.pp_phase_summary ()
          end)
    end
  in
  let verbose_t =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Trace engine passes.")
  in
  let trace_t =
    Arg.(
      value
      & opt (some out_path_conv) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record engine spans and write a Chrome trace_event JSON file \
             (open in Perfetto or chrome://tracing).")
  in
  let metrics_t =
    Arg.(
      value
      & opt (some out_path_conv) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a metrics snapshot (counters, gauges, histograms) as JSON, \
             or CSV when FILE ends in .csv.")
  in
  let profile_t =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print a phase-time summary table after the command completes.")
  in
  let events_t =
    Arg.(
      value
      & opt (some out_path_conv) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Append lifecycle events (request admitted, pass improved, \
             rollback, done/failed) to $(docv) as flushed JSONL — the flight \
             recorder (docs/OBSERVABILITY.md).")
  in
  Term.(const setup $ verbose_t $ trace_t $ metrics_t $ profile_t $ events_t)

(* ---------------- generate ---------------- *)

let generate_cmd =
  let run () name scale seed out stream =
    let base = match out with Some o -> o | None -> name in
    if stream then begin
      (* bounded-memory path: the weighted .hgr (which carries the
         areas as fmt-11 vertex weights) is emitted net by net without
         materializing the instance *)
      let oc = open_out (base ^ ".hgr") in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Suite.emit_instance ~scale ?seed name oc);
      Printf.printf "wrote %s.hgr (streamed)\n" base
    end
    else begin
      let h = Suite.instance ~scale ?seed name in
      Io.write_hgr (base ^ ".hgr") h;
      Io.write_are (base ^ ".are") h;
      Format.printf "%a@." H.pp h;
      Printf.printf "wrote %s.hgr and %s.are\n" base base
    end
  in
  let name_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"INSTANCE")
  in
  let out_t =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"BASE")
  in
  (* without --seed the file is the twin every command builds from the
     name, so partitioning it and partitioning the name agree *)
  let seed_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Generator seed: a different instance with the same statistics. \
             Without it, the file is the suite twin that every command \
             builds from the name.")
  in
  let stream_t =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Emit the .hgr in bounded memory (O(cells)) instead of building \
             the instance first — required for million-vertex scales.  Writes \
             only the weighted .hgr (areas ride along as fmt-11 vertex \
             weights), byte-identical to the non-streamed file.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic ISPD98 twin as .hgr/.are files.")
    Term.(const run $ common_t $ name_t $ scale_t $ seed_t $ out_t $ stream_t)

(* ---------------- partition ---------------- *)

(* the one error exit: a bad input ends the command with one line *)
let die msg =
  Printf.eprintf "hypart: %s\n" msg;
  exit 1

(* every located decoder and patcher error, whichever command hit it *)
let or_exit f =
  try f ()
  with
  | Io.Parse_error msg
  | Hypart_hypergraph.Instance_store.Format_error msg
  | Delta.Parse_error msg
  | Patch.Apply_error msg
  ->
    die msg

(* an instance argument: a netlist file whose extension names its
   format, or else a suite name *)
let load_instance input scale =
  match Io.format_of_path input with
  | Some format -> fst (Io.read format input)
  | None when is_suite_name input -> Suite.instance ~scale input
  | None -> die (unknown_instance input)

let input_t =
  let files = List.map (fun f -> List.hd (Io.extensions f)) Io.formats in
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"INPUT"
        ~doc:
          (Printf.sprintf
             "An instance name (ibm01..ibm18) or a netlist file: %s (a \
              Bookshelf .nodes file with its .nets beside it)."
             (String.concat ", " files)))

(* [input] with its netlist extension replaced by [ext] (appended for
   suite names and other formats) *)
let derived_path input ext =
  match Io.format_of_path input with
  | Some Io.Hgr -> Filename.remove_extension input ^ ext
  | _ -> input ^ ext

let legality legal = if legal then "legal" else "ILLEGAL"

(* [-o FILE]: every partition file is written by Io.write_partition *)
let save_partition ?(say = Printf.printf "wrote %s\n") out sides =
  Option.iter
    (fun path ->
      Io.write_partition path sides;
      say path)
    out

let partition_cmd =
  let run () input scale seed tolerance engine starts domains out =
    let h = load_instance input scale in
    let problem = Problem.make ~tolerance h in
    (* the daemon's seeded multistart: the same answer at every
       --domains *)
    let result, records =
      Engine.multistart_seeds ?domains engine problem ~seed ~starts
    in
    Format.printf "%a@." H.pp h;
    Printf.printf "engine: %s, %d start(s), tolerance %.0f%%\n"
      (Engine.name engine) starts (100. *. tolerance);
    Printf.printf "best cut: %d (%s)\n" result.Engine.Result.cut
      (legality result.Engine.Result.legal);
    let weights = Bipartition.block_weights result.Engine.Result.solution in
    Printf.printf "part weights: %d / %d (imbalance %.2f%%)\n" weights.(0)
      weights.(1)
      (100. *. Bipartition.imbalance result.Engine.Result.solution);
    Printf.printf "per-start cuts: %s\n"
      (String.concat " "
         (List.map (fun r -> string_of_int r.Engine.start_cut) records));
    Printf.printf "CPU: %.3fs\n" (Machine.normalize (Engine.cpu_seconds records));
    save_partition out (Bipartition.assignment result.Engine.Result.solution)
  in
  let domains_t =
    domains_t
      "Fan the starts out over D domains (multicore).  Start i runs \
       from seed SEED+i, so the result is the same for every D."
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Bipartition an instance and report the cut.")
    Term.(
      const run $ common_t $ input_t $ scale_t $ seed_t $ tol_t 0.02
      $ engine_t Hypart_multilevel.Ml_engines.mlclip $ starts_t 1 $ domains_t
      $ partition_out_t)

(* ---------------- pack ---------------- *)

let pack_cmd =
  let run () input scale out =
    let h = load_instance input scale in
    let out =
      match out with
      | Some o -> o
      | None -> derived_path input ".hgrb"
    in
    let fingerprint = Hypart_lab.Fingerprint.of_instance h in
    Hypart_hypergraph.Instance_store.save out ~fingerprint h;
    Format.printf "%a@." H.pp h;
    Printf.printf "fingerprint: %s\n" fingerprint;
    Printf.printf "wrote %s (%d bytes, mmap-loadable)\n" out
      (Unix.stat out).Unix.st_size
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT.hgrb"
          ~doc:"Output path; defaults to the input basename + .hgrb.")
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:
         "Pack an instance into the versioned binary .hgrb format (raw int32 \
          CSR sections behind a fingerprinted header) that loads by mmap with \
          zero parsing — see docs/FORMATS.md.")
    Term.(const run $ common_t $ input_t $ scale_t $ out_t)

(* ---------------- evaluate ---------------- *)

(* the balance verdict next to every printed imbalance *)
let verdict legal tolerance =
  Printf.sprintf "%s at %.0f%%" (legality legal) (100. *. tolerance)

(* the k-way report of [kway] (whose [run] names the engine and its CPU
   seconds) and [evaluate]: cut, part weights, imbalance and verdict *)
let print_kway ?run h ~k ~tolerance part_of cut =
  (match run with
   | Some (name, seconds) ->
     Printf.printf "%d-way cut (%s): %d (%.3fs)\n" k name cut seconds
   | None -> Printf.printf "%d-way cut:   %d\n" k cut);
  let weights = Kway_objective.part_weights h part_of ~k in
  let window = Kway_objective.window ~tolerance ~k (H.total_vertex_weight h) in
  Printf.printf "part weights:";
  Array.iter (Printf.printf " %d") weights;
  Printf.printf " (imbalance %.2f%%, %s)\n"
    (100. *. Kway_objective.imbalance h part_of ~k)
    (verdict (Kway_objective.is_legal window weights) tolerance)

let evaluate_cmd =
  let run () input part_file scale tolerance =
    let h = load_instance input scale in
    let side = Io.read_partition part_file ~num_vertices:(H.num_vertices h) in
    let k = 1 + Array.fold_left max 0 side in
    Format.printf "%a@." H.pp h;
    if k <= 2 then begin
      let s = Bipartition.make h side in
      let problem = Problem.make ~tolerance h in
      Printf.printf "cut:          %d\n" (Bipartition.cut h s);
      Printf.printf "part weights: %d / %d (imbalance %.2f%%, %s)\n"
        (Bipartition.part_weight s 0) (Bipartition.part_weight s 1)
        (100. *. Bipartition.imbalance s)
        (verdict (Problem.is_legal problem s) tolerance);
      List.iter
        (fun obj ->
          Printf.printf "%-12s  %.4f\n"
            (Hypart_partition.Objective.name obj ^ ":")
            (Hypart_partition.Objective.evaluate obj h s))
        Hypart_partition.Objective.[ Ratio_cut; Scaled_cost; Absorption ]
    end
    else print_kway h ~k ~tolerance side (Kway_objective.cut h side)
  in
  let part_t = Arg.(required & pos 1 (some string) None & info [] ~docv:"PARTITION") in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:"Evaluate a partition file against an instance: cut, balance, objectives.")
    Term.(const run $ common_t $ input_t $ part_t $ scale_t $ tol_t 0.02)

(* ---------------- kway ---------------- *)

let kway_cmd =
  let engines = [ ("rb", `Rb); ("direct", `Direct); ("mlk", `Mlk) ] in
  let run () input k scale seed tolerance engine out =
    let h = load_instance input scale in
    let rng = Rng.create seed in
    let (r : Hypart_fm.Kway_fm.result), dt =
      Machine.cpu_time (fun () ->
          match engine with
          | `Rb -> Hypart_multilevel.Recursive_bisection.run ~tolerance ~k rng h
          | `Direct -> Hypart_fm.Kway_fm.run_random_start ~tolerance ~k rng h
          | `Mlk -> Hypart_multilevel.Ml_kway.run ~tolerance ~k rng h)
    in
    let name = fst (List.find (fun (_, e) -> e = engine) engines) in
    Format.printf "%a@." H.pp h;
    print_kway ~run:(name, Machine.normalize dt) h ~k ~tolerance r.part_of r.cut;
    save_partition out r.part_of
  in
  let k_t =
    Arg.(value & opt (pos_int_conv "k") 4 & info [ "k" ] ~docv:"K" ~doc:"Part count.")
  in
  let engine_t =
    Arg.(
      value
      & opt (enum engines) `Rb
      & info [ "engine" ] ~docv:"E"
          ~doc:"rb (recursive bisection) | direct (flat k-way FM) | mlk (multilevel k-way).")
  in
  Cmd.v
    (Cmd.info "kway"
       ~doc:"k-way partitioning (recursive bisection or direct k-way FM).")
    Term.(
      const run $ common_t $ input_t $ k_t $ scale_t $ seed_t $ tol_t 0.10
      $ engine_t $ partition_out_t)

(* ---------------- place ---------------- *)

let place_cmd =
  let run () input scale seed detailed svg_out pl_out =
    let h = load_instance input scale in
    let module Topdown = Hypart_placement.Topdown in
    let module Detailed = Hypart_placement.Detailed in
    let rng = Rng.create seed in
    let pl, dt = Machine.cpu_time (fun () -> Topdown.place rng h) in
    let random = Topdown.random_placement (Rng.create (seed + 1)) h in
    Format.printf "%a@." H.pp h;
    Printf.printf "chip: %.1f x %.1f\n" pl.Topdown.width pl.Topdown.height;
    Printf.printf "min-cut HPWL: %.0f (%.2fs)\n" (Topdown.hpwl h pl)
      (Machine.normalize dt);
    Printf.printf "random  HPWL: %.0f\n" (Topdown.hpwl h random);
    let rudy = Hypart_placement.Congestion.rudy h pl in
    Printf.printf "congestion (RUDY): peak %.0f, avg %.0f\n"
      (Hypart_placement.Congestion.peak rudy)
      (Hypart_placement.Congestion.average rudy);
    let final =
      if detailed then begin
        let legal = Detailed.legalize h pl in
        let refined, stats = Detailed.anneal rng h legal in
        Printf.printf "legalized HPWL: %.0f; after annealing: %.0f\n"
          stats.Detailed.initial_hpwl stats.Detailed.final_hpwl;
        refined.Detailed.placement
      end
      else pl
    in
    Option.iter
      (fun path ->
        Hypart_placement.Svg_export.write path h final;
        Printf.printf "wrote %s\n" path)
      svg_out;
    Option.iter
      (fun basename ->
        Io.write_pl ~basename ~x:final.Topdown.x ~y:final.Topdown.y;
        Printf.printf "wrote %s.pl\n" basename)
      pl_out
  in
  let detailed_t =
    Arg.(
      value & flag
      & info [ "detailed" ]
          ~doc:"Run row legalization and annealing after the coarse placement.")
  in
  let svg_t =
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE"
         ~doc:"Write an SVG rendering of the placement.")
  in
  let pl_t =
    Arg.(value & opt (some string) None & info [ "pl" ] ~docv:"BASE"
         ~doc:"Write a Bookshelf .pl placement file.")
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:"Top-down min-cut coarse placement; reports HPWL vs a random placement.")
    Term.(
      const run $ common_t $ input_t $ scale_t $ seed_t $ detailed_t $ svg_t
      $ pl_t)

(* ---------------- tables ---------------- *)

module Campaigns = Hypart_harness.Campaigns
module Lab_store = Hypart_lab.Run_store

let run_store_t =
  store_t
    "Persist every run in the lab run store under $(docv) and serve \
     already-stored runs from it (resume + caching; see \
     docs/EXPERIMENTS_STORE.md).  Without it the runs live in memory \
     for this command only."

let write_file path contents = Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* Every table and study is a lab campaign: run it against the store,
   report on stderr how much of it the store already held, and print
   its view — stdout stays the view alone, identical on a warm rerun
   and to [hypart lab report] over the same store.  [out] also writes
   each table as .txt and .csv into a directory. *)
let run_campaign ?store ?(csv = false) ?out campaign =
  let o, sections = Campaigns.execute ~store campaign in
  Printf.eprintf "%s: %d jobs, %d cached, %d executed\n%!" (Campaigns.name campaign)
    o.Hypart_lab.Orchestrator.jobs o.cached o.executed;
  print_string (Campaigns.render ~csv sections);
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (function
          | Campaigns.Tabular { slug; table; _ } ->
            write_file (Filename.concat dir (slug ^ ".txt")) (Table.render table);
            write_file (Filename.concat dir (slug ^ ".csv")) (Table.to_csv table)
          | Campaigns.Markdown _ -> ())
        sections)
    out

(* a command that is one campaign of one part *)
let part_cmd ?(csv_t = csv_t) name ~doc args =
  let run () seed csv store part = run_campaign ?store ~csv (Campaigns.make ~name ~seed [ part ]) in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ common_t $ seed_t $ csv_t $ run_store_t $ args)

(* Tables 1-3: single starts on the small instances *)
let table_cmd name ~doc table =
  part_cmd name ~doc
    Term.(
      const (fun scale runs instances -> table ~scale ~runs ~instances)
      $ scale_t $ runs_t 20 $ instances_t Suite.names_small)

let table1_cmd =
  table_cmd "table1" Campaigns.table1
    ~doc:
      "Regenerate Table 1: min/avg cuts for the implicit-decision matrix \
       (updates x bias x engine), 2% tolerance, actual areas."

let table2_cmd =
  table_cmd "table2" (Campaigns.table23 `Lifo)
    ~doc:"Regenerate Table 2: our LIFO FM vs the weak 'Reported LIFO' baseline."

let table3_cmd =
  table_cmd "table3" (Campaigns.table23 `Clip)
    ~doc:
      "Regenerate Table 3: our CLIP FM (with the corking fix) vs the weak \
       'Reported CLIP' baseline."

let tables45_cmd =
  let tol_t =
    tol_t ~doc:"Balance tolerance: 0.02 regenerates Table 4, 0.10 Table 5." 0.02
  in
  let repeats_t =
    repeats_t ~doc:"Protocol repetitions per configuration (the paper used 50)." 5
  in
  let configs_t =
    Arg.(
      value
      & opt (list (pos_int_conv "configs")) Campaigns.default_configs
      & info [ "configs" ] ~docv:"NS" ~doc:"Starts per configuration.")
  in
  part_cmd "tables45"
    ~doc:
      "Regenerate Tables 4/5: multistart evaluation of the multilevel engine \
       (avg cut / avg CPU s per configuration)."
    Term.(
      const (fun scale repeats instances tolerance configs ->
          Campaigns.tables45 ~scale ~repeats ~configs ~instances ~tolerance)
      $ scale_t $ repeats_t $ instances_t Suite.names_eval $ tol_t $ configs_t)

(* The §3.2 figures are views over one experiment's stored starts: at
   the same scale and seed, bsf, pareto and ranking share their runs.
   [shown] is the instances run and the views shown. *)
let figure_cmd name ~doc ~starts shown =
  part_cmd name ~doc
    Term.(
      const (fun scale starts (instances, views) ->
          Campaigns.figures ~scale ~starts ~instances views)
      $ scale_t $ starts $ shown)

let on_suite_instance view = Term.(const (fun i -> ([ i ], [ view i ])) $ suite_instance_t)

let bsf_cmd =
  figure_cmd "bsf"
    ~doc:
      "Best-so-far curves (expected best cut vs CPU budget) for flat LIFO, \
       flat CLIP, ML LIFO and ML CLIP."
    ~starts:(starts_t ~doc:"Recorded starts." 20)
    (on_suite_instance (fun i -> `Bsf i))

let pareto_cmd =
  figure_cmd "pareto"
    ~doc:
      "(cost, runtime) points of best-of-1/4/16 starts per engine and their \
       non-dominated frontier."
    ~starts:(starts_t ~doc:"Recorded starts best-of-k is drawn from." 20)
    (on_suite_instance (fun i -> `Pareto i))

let ranking_cmd =
  figure_cmd "ranking"
    ~doc:"Speed-dependent ranking diagram: dominant heuristic per (instance, budget)."
    ~starts:(starts_t 15)
    Term.(const (fun instances -> (instances, [ `Ranking ])) $ instances_t Suite.names_small)

let compare_cmd =
  let a_t = Arg.(required & pos 0 (some engine_conv) None & info [] ~docv:"ENGINE_A") in
  let b_t = Arg.(required & pos 1 (some engine_conv) None & info [] ~docv:"ENGINE_B") in
  part_cmd "compare" ~csv_t:(Term.const false)
    ~doc:
      (Printf.sprintf
         "Head-to-head engine comparison with significance tests (Welch t, \
          Mann-Whitney U) and bootstrap confidence intervals — the 3.2/Brglez \
          protocol.  Engines: %s."
         (engine_list_doc ()))
    Term.(
      const (fun scale runs a b instance ->
          Campaigns.compare ~scale ~runs ~engine_a:(Engine.name a) ~engine_b:(Engine.name b)
            ~instance)
      $ scale_t $ runs_t 20 $ a_t $ b_t $ suite_instance_t)

let engines_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-14s %s\n" (Engine.name e) (Engine.description e))
      (Engine.all ())
  in
  Cmd.v
    (Cmd.info "engines"
       ~doc:
         "List the registered partitioning engines (usable with partition \
          --engine and compare).")
    Term.(const run $ common_t)

(* a study on one suite instance *)
let study_cmd name ~doc ~runs study =
  part_cmd name ~doc
    Term.(
      const (fun scale runs instance -> study ~scale ~runs ~instance)
      $ scale_t $ runs_t runs $ suite_instance_t)

let regime_cmd =
  let big_t =
    Arg.(
      value & flag
      & info [ "big" ]
          ~doc:"Include a 750,000-cell synthetic instance (adds ~2 CPU minutes).")
  in
  part_cmd "regime"
    ~doc:
      "Runtime-regime check (2.1): one multilevel start per full-size \
       instance against the top-down placement CPU budget."
    Term.(const (fun big -> Campaigns.regime ~big) $ big_t)

let fixed_cmd =
  study_cmd "fixed" ~runs:12 Campaigns.fixed
    ~doc:
      "Fixed-terminals study (§2.1): cut, variance and runtime as a growing \
       fraction of vertices is fixed."

let corking_cmd =
  study_cmd "corking" ~runs:10 Campaigns.corking
    ~doc:"CLIP corking diagnostic: moves per pass and empty passes with and without the fix."

let ablation_cmd =
  study_cmd "ablation" ~runs:10 Campaigns.ablation
    ~doc:
      "Quality ablation of every design dimension: insertion order, \
       illegal-head policy, oversized-cell handling, pass-best rule, \
       initial generator, coarsening scheme, LIFO and CLIP boundary refinement."

let all_cmd =
  let run () scale runs seed out store =
    run_campaign ?store ?out (Campaigns.campaign ~scale ~runs ~seed "all")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Also write every table as .txt and .csv into this directory.")
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table and figure at the given scale.")
    Term.(const run $ common_t $ scale_t $ runs_t 20 $ seed_t $ out_t $ run_store_t)

(* ---------------- lab ---------------- *)

let lab_cmd =
  let campaign_conv =
    let parse s =
      if List.mem s Campaigns.names then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf "unknown campaign %s (known: %s)" s
                (String.concat " | " Campaigns.names)))
    in
    Arg.conv ~docv:"CAMPAIGN" (parse, Format.pp_print_string)
  in
  let campaign_t =
    Term.(
      const (fun name scale runs seed -> Campaigns.campaign ~scale ~runs ~seed name)
      $ Arg.(
          value
          & opt campaign_conv "smoke"
          & info [ "campaign" ] ~docv:"NAME"
              ~doc:
                (Printf.sprintf "Built-in campaign: %s.  For eco, --runs is the number of steps."
                   (String.concat " | " Campaigns.names)))
      $ scale_of 8.0 $ runs_t 20 $ seed_t)
  in
  let store_dir_t =
    Term.(
      const (Option.value ~default:"lab")
      $ store_t "Run store directory (default: lab).")
  in
  let domains_t =
    domains_t
      "Execute pending jobs over D domains.  Per-job derived seeds make \
       the stored results bit-identical for every D."
  in
  let execute ~what campaign store domains =
    let o = Lab_store.with_store (Some store) (Campaigns.run ?domains campaign) in
    Printf.printf "%s campaign %s into %s: %d jobs, %d cached, %d executed\n" what
      (Campaigns.name campaign) store o.Hypart_lab.Orchestrator.jobs o.cached o.executed;
    if o.dropped > 0 then Printf.printf "dropped %d malformed store line(s) on load\n" o.dropped
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Execute a campaign: expand the manifest, serve already-stored \
            cells from the run store, fan the rest out over domains, append \
            one flushed JSONL record per completed run.")
      Term.(
        const (fun () -> execute ~what:"ran")
        $ common_t $ campaign_t $ store_dir_t $ domains_t)
  in
  let resume_cmd =
    let run () campaign store domains =
      if not (Sys.file_exists (Lab_store.filename store)) then begin
        Printf.eprintf
          "hypart lab resume: no run store at %s (use `hypart lab run` to \
           start a campaign)\n"
          (Lab_store.filename store);
        exit 1
      end;
      execute ~what:"resumed" campaign store domains
    in
    Cmd.v
      (Cmd.info "resume"
         ~doc:
           "Resume an interrupted campaign: identical to run (the store IS \
            the checkpoint — completed cells are cache hits, the rest \
            execute), but refuses to start from an absent store.")
      Term.(const run $ common_t $ campaign_t $ store_dir_t $ domains_t)
  in
  let report_cmd =
    let run () campaign store out =
      let report = Campaigns.render (Campaigns.view campaign (Lab_store.load store)) in
      match out with
      | None -> print_string report
      | Some path ->
        write_file path report;
        Printf.printf "wrote %s\n" path
    in
    let out_t =
      Arg.(
        value
        & opt (some out_path_conv) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Write the report to $(docv) instead of stdout.")
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Rebuild the campaign's view purely from the run store — no \
            engine runs.  A table campaign prints what its command printed.")
      Term.(const run $ common_t $ campaign_t $ store_dir_t $ out_t)
  in
  let gc_cmd =
    let run () store =
      let kept, dropped = Lab_store.compact store in
      Printf.printf "compacted %s: kept %d record(s), dropped %d\n"
        (Lab_store.filename store) kept dropped
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Compact the run store in place: drop malformed lines and \
            duplicate keys (first occurrence wins).")
      Term.(const run $ common_t $ store_dir_t)
  in
  Cmd.group
    (Cmd.info "lab"
       ~doc:
         "Experiment campaigns over the persistent run store: crash-safe \
          JSONL records, content-addressed caching, deterministic sharded \
          execution, store-only reporting (docs/EXPERIMENTS_STORE.md).")
    [ run_cmd; resume_cmd; report_cmd; gc_cmd ]

(* ---------------- serve / submit ---------------- *)

let host_t =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Daemon address.")

let port_t =
  Arg.(
    value
    & opt int 8817
    & info [ "port" ] ~docv:"PORT" ~doc:"Daemon port (serve: 0 = ephemeral).")

let serve_cmd =
  let run () host port workers queue_capacity max_body_mb store retention
      instance_cache_mb =
    let config =
      {
        Server.host;
        port;
        workers;
        queue_capacity;
        max_body = max_body_mb * 1024 * 1024;
        store;
        retention;
        instance_cache_bytes = instance_cache_mb * 1024 * 1024;
      }
    in
    let server = Server.create config in
    (* SIGTERM/SIGINT initiate the graceful drain: stop accepting, let
       admitted work finish, exit 0 *)
    let stop = Sys.Signal_handle (fun _ -> Server.shutdown server) in
    Sys.set_signal Sys.sigterm stop;
    Sys.set_signal Sys.sigint stop;
    (* a client vanishing mid-response must be an EPIPE, not a kill *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Printf.printf "hypart daemon listening on %s:%d\n%!" host
      (Server.port server);
    Server.run server
  in
  let workers_t =
    Arg.(
      value
      & opt (pos_int_conv "workers") (Server.default_config.Server.workers)
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_t =
    Arg.(
      value
      & opt (pos_int_conv "queue") 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded queue capacity; beyond it new requests are answered 503 \
             with Retry-After.")
  in
  let max_body_t =
    Arg.(
      value
      & opt (pos_int_conv "max-body-mb") 64
      & info [ "max-body-mb" ] ~docv:"MB"
          ~doc:"Request bodies above this are answered 413.")
  in
  let store_t =
    store_t
      "Persist completed runs to this lab run store and warm the dedup \
       cache from it at startup."
  in
  let retention_t =
    Arg.(
      value
      & opt (pos_int_conv "retention") 1024
      & info [ "retention" ] ~docv:"N"
          ~doc:"Finished jobs kept queryable at /jobs/<id>.")
  in
  let instance_cache_t =
    Arg.(
      value
      & opt (pos_int_conv "instance-cache-mb") 512
      & info [ "instance-cache-mb" ] ~docv:"MB"
          ~doc:
            "Byte bound of the parsed-instance cache: repeat submissions of \
             the same netlist body skip reparsing (LRU eviction beyond this).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the partitioning daemon: HTTP/1.1 over a bounded worker pool, \
          cache-aware dedup, per-request deadlines, graceful drain on SIGTERM \
          (docs/SERVER.md).")
    Term.(
      const run $ common_t $ host_t $ port_t $ workers_t $ queue_t $ max_body_t
      $ store_t $ retention_t $ instance_cache_t)

(* the wire form of an instance for daemon submission: the file's
   payload plus the daemon's format tag; suite names are generated
   locally and shipped as .hgr text *)
let instance_payload input scale =
  match Io.format_of_path input with
  | Some format -> (Io.payload format input, Io.format_tag format)
  | None -> (Io.hgr_string (load_instance input scale), "hgr")

(* one daemon round trip; a failure ends the command under [what] *)
let round_trip ~what ~host ~port ~attempts ~path ~body =
  match Client.post ~attempts ~host ~port ~path ~body () with
  | Ok answer -> answer
  | Error failure ->
    Printf.eprintf "%s: %s\n" what (Client.failure_message failure);
    exit 1

let save_answer out (a : Client.answer) =
  match (out, a.Client.assignment) with
  | Some path, None ->
    (* a cached record holds only scalars, not the assignment *)
    Printf.eprintf "note: cached result carries no assignment; %s not written\n"
      path
  | _, sides ->
    Option.iter
      (save_partition ~say:(Printf.printf "partition written to %s\n") out)
      sides

let submit_cmd =
  let run () input scale host port engine seed starts tolerance deadline_ms
      attempts out =
    let body, format = instance_payload input scale in
    let path =
      Client.partition_path ~engine:(Engine.name engine) ~seed ~starts ~tolerance
        ~format ~deadline_ms ()
    in
    let a = round_trip ~what:"submit failed" ~host ~port ~attempts ~path ~body in
    Printf.printf "engine: %s, %d start(s), tolerance %.0f%%\n"
      (Engine.name engine) starts (100. *. tolerance);
    Printf.printf "best cut: %d (%s)%s\n" a.Client.cut (legality a.Client.legal)
      (if a.Client.cached then " [cached]" else "");
    Printf.printf "server job %d, engine CPU %.6fs\n" a.Client.job a.Client.seconds;
    Printf.printf "request id: %s\n" a.Client.request_id;
    save_answer out a
  in
  let deadline_t =
    Arg.(
      value
      & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-request deadline; 0 means none.  Expiry is answered 504.")
  in
  let attempts_t =
    attempts_t 6
      ~doc:
        "Total tries when the daemon is unreachable or answers 503 \
         (exponential backoff with jitter, honouring Retry-After)."
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a partitioning job to a running daemon and print the result \
          in the same shape as $(b,partition).")
    Term.(
      const run $ common_t $ input_t $ scale_t $ host_t $ port_t
      $ engine_t Hypart_multilevel.Ml_engines.mlclip $ seed_t $ starts_t 1
      $ tol_t 0.02 $ deadline_t $ attempts_t $ partition_out_t)

(* ---------------- evolve ---------------- *)

let evolve_cmd =
  let run () input scale seed tolerance engine population generations
      recombinations immigrants starts servers store domains attempts out_file
      =
    let h = load_instance input scale in
    let problem = Problem.make ~tolerance h in
    let recombinations =
      match recombinations with Some r -> r | None -> max 1 (population / 2)
    in
    let immigrants =
      match immigrants with Some m -> m | None -> max 1 (population / 4)
    in
    let config =
      {
        Evolve.base_engine = Engine.name engine;
        population;
        generations;
        recombinations;
        immigrants;
        starts;
        tolerance;
        ml = Ml.ml_clip;
        domains;
      }
    in
    let executor =
      match servers with
      | None -> Exec.in_process ?domains ()
      | Some spec -> (
        match Fleet.parse_servers spec with
        | Error msg ->
          Printf.eprintf "evolve: %s\n" msg;
          exit 1
        | Ok list ->
          let body, format = instance_payload input scale in
          Fleet.executor ~attempts_per_server:attempts ~tolerance
            (Fleet.create list) ~body ~format)
    in
    Format.printf "%a@." H.pp h;
    Printf.printf
      "campaign: %s base, population %d, %d generation(s) of %d \
       recombinations + %d immigrants, %d start(s), tolerance %.0f%%\n"
      (Engine.name engine) population generations recombinations immigrants
      starts (100. *. tolerance);
    Printf.printf "executor: %s%s\n%!" executor.Exec.name
      (match store with Some d -> Printf.sprintf ", store %s" d | None -> "");
    match Evolve.run ?store ~executor config ~seed problem with
    | exception Failure msg ->
      Printf.eprintf "evolve: %s\n" msg;
      exit 1
    | exception Hypart_evolve.Pop_log.Mismatch { expected; found } ->
      Printf.eprintf
        "evolve: store holds another campaign's population (campaign %s, \
         store %s) — pick a fresh --store or rerun that campaign's \
         parameters\n"
        expected found;
      exit 1
    | o ->
      List.iter
        (fun (g : Evolve.generation) ->
          Printf.printf
            "gen %2d  best %6d (%s)  evaluated %2d  replayed %2d  cpu %8.3fs  \
             total %8.3fs\n"
            g.Evolve.g_index g.Evolve.g_best_cut
            (legality g.Evolve.g_best_legal)
            g.Evolve.g_evaluated g.Evolve.g_replayed
            (Machine.normalize g.Evolve.g_seconds)
            (Machine.normalize g.Evolve.g_cum_seconds))
        o.Evolve.history;
      let best = o.Evolve.best.Hypart_evolve.Population.candidate in
      let solution = o.Evolve.best.Hypart_evolve.Population.solution in
      Printf.printf "best cut: %d (%s), found by %s at gen %d\n" best.cut
        (legality best.legal) best.kind best.gen;
      Printf.printf "part weights: %d / %d\n"
        (Bipartition.part_weight solution 0)
        (Bipartition.part_weight solution 1);
      Printf.printf "evaluated %d, replayed %d, campaign CPU %.3fs\n"
        o.Evolve.evaluated o.Evolve.replayed
        (Machine.normalize o.Evolve.total_seconds);
      (* the (cost, CPU) frontier over the campaign's own trajectory:
         which generations were worth their cumulative CPU *)
      let points =
        List.map
          (fun (g : Evolve.generation) ->
            {
              Pareto.label = Printf.sprintf "gen %d" g.Evolve.g_index;
              Pareto.cost = float_of_int g.Evolve.g_best_cut;
              Pareto.runtime = Machine.normalize g.Evolve.g_cum_seconds;
            })
          o.Evolve.history
      in
      Printf.printf "Pareto frontier (best cut vs cumulative CPU):\n";
      List.iter
        (fun p ->
          Printf.printf "  %-8s  cut %6.0f  cpu %8.3fs\n" p.Pareto.label
            p.Pareto.cost p.Pareto.runtime)
        (Pareto.frontier points);
      (* timing-free witness: byte-identical for a fixed seed at any
         domain count or fleet size *)
      Printf.printf "trajectory %s\n"
        (Hypart_lab.Fingerprint.of_string (Evolve.trajectory o));
      save_partition
        ~say:(Printf.printf "partition written to %s\n")
        out_file
        best.assignment
  in
  let engine_t =
    engine_t Hypart_multilevel.Ml_engines.mlclip
      ~doc:
        "Base engine evaluated for population seeds and immigrants \
         (recombination always refines multilevel)."
  in
  let population_t =
    Arg.(
      value
      & opt (pos_int_conv "population") 12
      & info [ "population" ] ~docv:"N" ~doc:"Population capacity.")
  in
  let generations_t =
    Arg.(
      value
      & opt (pos_int_conv "generations") 8
      & info [ "generations" ] ~docv:"N"
          ~doc:"Recombination generations after the seeding generation.")
  in
  let recombinations_t =
    Arg.(
      value
      & opt (some (pos_int_conv "recombinations")) None
      & info [ "recombinations" ] ~docv:"N"
          ~doc:"Offspring per generation (default population/2).")
  in
  let immigrants_t =
    Arg.(
      value
      & opt (some (pos_int_conv "immigrants")) None
      & info [ "immigrants" ] ~docv:"N"
          ~doc:
            "Fresh multistart entrants per generation (default population/4).")
  in
  let starts_t = starts_t ~doc:"Seeded multistart width per evaluation." 1 in
  let servers_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "servers" ] ~docv:"HOST:PORT,..."
          ~doc:
            "Shard evaluations across these $(b,hypart serve) daemons \
             (round-robin with failover); omit to evaluate in-process.")
  in
  let store_t =
    store_t
      "Persist the population log and run records here; re-running the \
       same campaign resumes from it without recomputing logged \
       candidates."
  in
  let domains_t =
    domains_t
      "Local fan-out for recombinations and in-process evaluations.  \
       The trajectory is bit-identical for every D."
  in
  let attempts_t =
    attempts_t 3
      ~doc:"Per-server tries before failing over to the next daemon (fleet mode)."
  in
  Cmd.v
    (Cmd.info "evolve"
       ~doc:
         "Run a memetic partitioning campaign: a persistent population \
          improved by cut-respecting recombination and multistart \
          immigrants, evaluated in-process or across a daemon fleet \
          (docs/SERVER.md).")
    Term.(
      const run $ common_t $ input_t $ scale_t $ seed_t $ tol_t 0.02 $ engine_t
      $ population_t $ generations_t $ recombinations_t $ immigrants_t
      $ starts_t $ servers_t $ store_t $ domains_t $ attempts_t
      $ partition_out_t)

(* ---------------- delta-gen / eco ---------------- *)

let delta_gen_cmd =
  let run () input scale fraction seed out =
    let h = load_instance input scale in
    let fp = Hypart_lab.Fingerprint.of_instance h in
    let delta =
      Delta_gen.perturb ~base_fingerprint:fp ~rng:(Rng.create seed) ~fraction h
    in
    let out =
      match out with
      | Some o -> o
      | None -> derived_path input ".hgrd"
    in
    Delta.write out delta;
    Printf.printf "wrote %s (%d ops against base %s)\n" out
      (Delta.num_ops delta) fp
  in
  let fraction_t =
    Arg.(
      value
      & opt (float_conv "fraction" "(0, 1]" (fun f -> f > 0. && f <= 1.)) 0.01
      & info [ "fraction" ] ~docv:"F"
          ~doc:"Perturbation size as a fraction of the instance (0 < F <= 1).")
  in
  let out_t =
    Arg.(
      value
      & opt (some out_path_conv) None
      & info [ "o"; "out" ] ~docv:"FILE.hgrd"
          ~doc:"Output path; defaults to the input basename + .hgrd.")
  in
  Cmd.v
    (Cmd.info "delta-gen"
       ~doc:
         "Generate a seeded random ECO delta (.hgrd edit script: net and cell \
          adds/removals, reweights) against an instance — the perturbation \
          model of the eco lab campaign (docs/FORMATS.md).")
    Term.(const run $ common_t $ input_t $ scale_t $ fraction_t $ seed_t $ out_t)

let eco_cmd =
  let run () base prior_file delta_file scale seed tolerance engine scratch
      radius fallback compare out submit host port attempts =
    let h = load_instance base scale in
    let fp = Hypart_lab.Fingerprint.of_instance h in
    let delta = Delta.read delta_file in
    let prior =
      match delta.Delta.prior with
      | Some p -> p  (* the delta already embeds its warm start *)
      | None -> Io.read_partition prior_file ~num_vertices:(H.num_vertices h)
    in
    if submit then begin
      (* ship the edit script with the prior embedded: one body carries
         the whole warm-start request *)
      let delta = Delta.with_base (Delta.with_prior delta (Some prior)) fp in
      let path =
        Printf.sprintf
          "/delta?engine=%s&scratch=%s&seed=%d&tol=%.9g&radius=%d&fallback_fraction=%.9g&out=plain"
          (Engine.name engine) (Engine.name scratch) seed tolerance radius
          fallback
      in
      let a =
        round_trip ~what:"eco" ~host ~port ~attempts ~path
          ~body:(Delta.to_string delta)
      in
      let hdr name = Option.value ~default:"?" (Client.header a name) in
      Printf.printf "delta fingerprint: %s\n" (hdr "x-hypart-delta-fingerprint");
      Printf.printf "warm cut: %d (%s) in %.6fs%s\n" a.Client.cut
        (legality a.Client.legal) a.Client.seconds
        (if a.Client.cached then " [cached]"
         else Printf.sprintf " [mode %s]" (hdr "x-hypart-mode"));
      Printf.printf "server job %d, request id %s\n" a.Client.job
        a.Client.request_id;
      save_answer out a
    end
    else begin
      let patch = Patch.apply ~base:h ~base_fingerprint:fp delta in
      let st = patch.Patch.stats in
      Format.printf "%a@." H.pp h;
      Printf.printf
        "delta: %d ops (+%d/-%d nets, +%d/-%d cells, %d reweights), %d pins \
         touched\n"
        (Delta.num_ops delta) st.Patch.nets_added st.Patch.nets_removed
        st.Patch.cells_added st.Patch.cells_removed st.Patch.cells_reweighted
        st.Patch.pins_touched;
      Printf.printf "patched: %d cells, %d nets, fingerprint %s\n"
        (H.num_vertices patch.Patch.hypergraph)
        (H.num_edges patch.Patch.hypergraph)
        patch.Patch.fingerprint;
      let config =
        { Eco.radius; fallback_fraction = fallback; tolerance }
      in
      let outcome = Eco.run ~config ~engine ~scratch ~seed ~prior patch in
      Printf.printf "projected cut: %d, free %d/%d\n" outcome.Eco.projected_cut
        outcome.Eco.free_vertices
        (H.num_vertices patch.Patch.hypergraph);
      let r = outcome.Eco.result in
      Printf.printf "warm cut: %d (%s) in %.4fs [mode %s]\n"
        r.Engine.Result.cut (legality r.Engine.Result.legal)
        outcome.Eco.seconds
        (match outcome.Eco.mode with Eco.Warm -> "warm" | Eco.Scratch -> "scratch");
      if compare then begin
        let sres, ss =
          Machine.cpu_time (fun () ->
              Engine.run scratch (Rng.create seed)
                (Problem.make ~tolerance patch.Patch.hypergraph)
                None)
        in
        Printf.printf "scratch cut: %d (%s) in %.4fs\n" sres.Engine.Result.cut
          (legality sres.Engine.Result.legal) ss;
        Printf.printf "speedup: %.1fx\n" (ss /. Float.max outcome.Eco.seconds 1e-9)
      end;
      save_partition out (Bipartition.assignment r.Engine.Result.solution)
    end
  in
  let base_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASE"
          ~doc:"The base instance the delta applies to (name or netlist file).")
  in
  let prior_t =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"PRIOR"
          ~doc:
            "Prior partition of the base instance (one side per line, as \
             written by $(b,partition -o)).  Ignored when the delta embeds \
             its own prior section.")
  in
  let delta_t =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"DELTA.hgrd" ~doc:"The .hgrd edit script.")
  in
  let scratch_t =
    engine_t ~name:"scratch" Hypart_multilevel.Ml_engines.mlclip
      ~doc:"From-scratch fallback (and --compare baseline) engine."
  in
  let engine_t =
    engine_t Hypart_fm.Fm_engines.eco_fm
      ~doc:"Warm-start refinement engine (eco_fm | eco_ml)."
  in
  let radius_t =
    Arg.(
      value
      & opt (pos_int_conv "radius") Eco.default_config.Eco.radius
      & info [ "radius" ] ~docv:"R"
          ~doc:
            "Boundary-localization radius: vertices within R hyperedge hops \
             of the delta's touched set stay free; everything else is fixed.")
  in
  let fallback_t =
    Arg.(
      value
      & opt
          (float_conv "fallback fraction" "[0, 1]" (fun f -> f >= 0. && f <= 1.))
          Eco.default_config.Eco.fallback_fraction
      & info [ "fallback-fraction" ] ~docv:"F"
          ~doc:
            "Touched fraction above which the warm start is abandoned and the \
             scratch engine runs instead.")
  in
  let compare_t =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Also run the scratch engine from scratch on the patched instance \
             and print the speedup.")
  in
  let submit_t =
    Arg.(
      value & flag
      & info [ "submit" ]
          ~doc:
            "Send the delta to a running daemon's POST /delta instead of \
             patching locally.  The base instance must be resident there \
             (submit it first); the prior is embedded in the request body.")
  in
  let attempts_t =
    attempts_t 6 ~doc:"Total tries against an unreachable or busy daemon."
  in
  Cmd.v
    (Cmd.info "eco"
       ~doc:
         "Incremental (ECO) repartitioning: apply a .hgrd delta to a base \
          instance and refine the prior partition with boundary-localized \
          warm-start FM instead of repartitioning from scratch \
          (docs/FORMATS.md, docs/SERVER.md).")
    Term.(
      const run $ common_t $ base_t $ prior_t $ delta_t $ scale_t $ seed_t
      $ tol_t 0.02 $ engine_t $ scratch_t $ radius_t $ fallback_t $ compare_t
      $ partition_out_t $ submit_t $ host_t $ port_t $ attempts_t)

(* ---------------- bench-diff ---------------- *)

let bench_diff_cmd =
  let run () old_path new_path tolerance prefix =
    match Bench_diff.diff_files ~prefix ~tolerance old_path new_path with
    | Error msg ->
      Printf.eprintf "bench-diff: %s\n" msg;
      exit 2
    | Ok report ->
      print_string (Bench_diff.render ~tolerance report);
      if report.Bench_diff.regressions <> [] then exit 1
  in
  let old_t =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"OLD" ~doc:"Baseline metrics snapshot (JSON).")
  in
  let new_t =
    Arg.(
      required
      & pos 1 (some non_dir_file) None
      & info [] ~docv:"NEW" ~doc:"Candidate metrics snapshot (JSON).")
  in
  let tolerance_t =
    Arg.(
      value
      & opt (pos_float_conv "tolerance") 0.15
      & info [ "tolerance" ] ~docv:"T"
          ~doc:
            "Allowed slowdown ratio: a benchmark whose normalized ns/run \
             grows by more than $(docv) (e.g. 0.15 = +15%) is a regression.")
  in
  let prefix_t =
    Arg.(
      value
      & opt string "bench."
      & info [ "prefix" ] ~docv:"P" ~doc:"Gauge-name prefix to compare.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare bench.* gauges between two metrics snapshots (as written by \
          the bench runner), print a per-benchmark delta table, and exit \
          nonzero when any benchmark regressed beyond the tolerance.  Both \
          sides are scaled by their recorded machine normalization factor \
          before comparison.")
    Term.(const run $ common_t $ old_t $ new_t $ tolerance_t $ prefix_t)

let main_cmd =
  Cmd.group
    (Cmd.info "hypart" ~version:"1.0.0"
       ~doc:
         "Hypergraph partitioning for VLSI CAD: FM/CLIP/multilevel engines and \
          the DAC'99 methodology experiments.")
    [
      generate_cmd; pack_cmd; partition_cmd; evaluate_cmd; kway_cmd; place_cmd;
      engines_cmd; table1_cmd; table2_cmd; table3_cmd;
      tables45_cmd; bsf_cmd; pareto_cmd; ranking_cmd; corking_cmd;
      regime_cmd; fixed_cmd; ablation_cmd; compare_cmd; all_cmd;
      lab_cmd; serve_cmd; submit_cmd; evolve_cmd; delta_gen_cmd; eco_cmd;
      bench_diff_cmd;
    ]

(* cmdliner's own catch would turn a located input error into an
   "internal error" report; [or_exit] makes it one line and exit 1 *)
let () = exit (or_exit (fun () -> Cmd.eval ~catch:false main_cmd))
