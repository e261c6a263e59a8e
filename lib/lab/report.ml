module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Engine = Hypart_engine.Engine
module Descriptive = Hypart_stats.Descriptive
module Bootstrap = Hypart_stats.Bootstrap
module Significance = Hypart_stats.Significance
module Bsf = Hypart_stats.Bsf
module Pareto = Hypart_stats.Pareto
module Ranking = Hypart_stats.Ranking

type t = {
  store : Run_store.t;
  manifest : Manifest.t;
  fps : (string * float, string) Hashtbl.t;
}

let create ?(instance_fps = []) store manifest =
  let fps = Hashtbl.create 16 in
  List.iter (fun (k, fp) -> Hashtbl.replace fps k fp) instance_fps;
  { store; manifest; fps }

(* Instance fingerprints only — the report never builds problems or
   runs engines; an instance the caller did not fingerprint is generated
   once.  The fingerprint does not depend on tolerance. *)
let instance_fp t instance scale =
  match Hashtbl.find_opt t.fps (instance, scale) with
  | Some fp -> fp
  | None ->
    let fp = Fingerprint.of_instance (Suite.instance ~scale instance) in
    Hashtbl.add t.fps (instance, scale) fp;
    fp

let lookup t (job : Manifest.job) =
  let instance_fp = instance_fp t job.instance job.experiment.scale in
  Run_store.find ~quiet:true t.store ~key:(Manifest.job_key ~instance_fp job)

type cell = { stored : Run_store.record list; expected : int }

(* Every job of a cell looked up by its content address: a pure
   function of (manifest, store contents), so store file order, and
   hence domain scheduling, cannot influence it. *)
let cell t e engine ~instance protocol =
  let jobs = Manifest.cell_jobs t.manifest e engine ~instance protocol in
  { stored = List.filter_map (lookup t) jobs; expected = List.length jobs }

let int_cuts c = Array.of_list (List.map (fun r -> r.Run_store.cut) c.stored)
let cuts c = Descriptive.of_ints (int_cuts c)

(* a run's CPU seconds under the normalization factor stored with it,
   so runs recorded under different factors stay comparable *)
let normalized_seconds r = r.Run_store.seconds *. r.Run_store.machine_factor

let cpu_per_run c =
  List.fold_left (fun acc r -> acc +. normalized_seconds r) 0. c.stored
  /. float_of_int (List.length c.stored)

(* a cell's text, marked "†" when it holds an illegal run and "(k/N)"
   when runs are missing *)
let marked c f =
  let n = List.length c.stored in
  if n = 0 then Printf.sprintf "(0/%d)" c.expected
  else begin
    let s = f c in
    let s = if List.exists (fun r -> not r.Run_store.legal) c.stored then s ^ "†" else s in
    if n < c.expected then Printf.sprintf "%s (%d/%d)" s n c.expected else s
  end

let runs t e engine ~instance = (cell t e engine ~instance Single_start).stored

let min_avg t e engine ~instance =
  marked (cell t e engine ~instance Single_start) (fun c -> Descriptive.min_avg (int_cuts c))

let cpu t e engine ~instance =
  marked (cell t e engine ~instance Single_start) (fun c -> Printf.sprintf "%.3f" (cpu_per_run c))

let min_avg_table t (e : Manifest.experiment) =
  let table = Table.make ~headers:("engine" :: e.instances) in
  List.iter
    (fun engine ->
      Table.add_row table
        (Engine.name engine :: List.map (fun instance -> min_avg t e engine ~instance) e.instances))
    e.engines;
  table

let cut_cpu_table ?(timing = false) t (e : Manifest.experiment) =
  let configs =
    List.filter_map (function Manifest.Multistart n -> Some n | Single_start -> None) e.protocols
  in
  let table =
    Table.make
      ~headers:
        ("Circuit"
        :: List.map (fun n -> Printf.sprintf "%d start%s" n (if n = 1 then "" else "s")) configs)
  in
  let several = List.length e.engines > 1 in
  List.iter
    (fun engine ->
      List.iter
        (fun instance ->
          let cell_of starts =
            marked (cell t e engine ~instance (Multistart starts)) (fun c ->
                let avg = Descriptive.mean (cuts c) in
                if timing then Printf.sprintf "%.1f/%.2f" avg (cpu_per_run c)
                else Printf.sprintf "%.1f" avg)
          in
          let label = if several then Engine.name engine ^ ":" ^ instance else instance in
          Table.add_row table (label :: List.map cell_of configs))
        e.instances)
    e.engines;
  table

let verdict ~name_a ~name_b xa xb =
  let t = Significance.welch_t_test xa xb and u = Significance.mann_whitney_u xa xb in
  let mean_a = Descriptive.mean xa and mean_b = Descriptive.mean xb in
  if Float.min t.p_value u.p_value > 0.05 then
    Printf.sprintf
      "no significant difference at the 5%% level (Welch p=%.3f, MWU p=%.3f) — per Brglez, \
       do not report one as better"
      t.p_value u.p_value
  else
    Printf.sprintf "%s is significantly better (mean %.1f vs %.1f; Welch p=%.4f, MWU p=%.4f)"
      (if mean_a < mean_b then name_a else name_b)
      (Float.min mean_a mean_b) (Float.max mean_a mean_b) t.p_value u.p_value

let compare ?(timing = false) t (e : Manifest.experiment) ~instance =
  let columns = [ "min/avg"; "stddev"; "95% CI of mean" ] @ if timing then [ "CPU s/run" ] else [] in
  let table = Table.make ~headers:("Engine" :: "n" :: columns) in
  let cells =
    List.map
      (fun engine ->
        let c = cell t e engine ~instance Single_start in
        let n = List.length c.stored in
        let stats =
          if n = 0 then List.map (fun _ -> "—") columns
          else begin
            let xs = cuts c in
            let stddev = (Descriptive.summarize xs).stddev in
            let ci_seed =
              Fingerprint.mix_seed ~base:t.manifest.seed
                [ "ci"; e.exp_name; Engine.name engine; instance ]
            in
            let ci = Bootstrap.mean_ci (Rng.create ci_seed) xs in
            [
              Descriptive.min_avg (int_cuts c);
              Printf.sprintf "%.1f" stddev;
              Printf.sprintf "[%.1f, %.1f]" ci.lo ci.hi;
            ]
            @ if timing then [ Printf.sprintf "%.3f" (cpu_per_run c) ] else []
          end
        in
        let runs = if n < c.expected then Printf.sprintf "%d/%d" n c.expected else string_of_int n in
        Table.add_row table (Engine.name engine :: runs :: stats);
        (engine, c))
      e.engines
  in
  let complete (_, c) = List.length c.stored = c.expected && c.expected >= 2 in
  let verdict =
    match cells with
    | [ ((a, ca) as cell_a); ((b, cb) as cell_b) ] when complete cell_a && complete cell_b ->
      Some (verdict ~name_a:(Engine.name a) ~name_b:(Engine.name b) (cuts ca) (cuts cb))
    | _ -> None
  in
  (table, verdict)

(* -- §3.2 figures: views over the per-run (normalized CPU s, cut)
   records of single-start cells -- *)

let default_budgets = [| 0.1; 0.25; 0.5; 1.0; 2.0; 5.0; 10.0 |]

(* a cell's expected BSF curve, resampled from a seed derived from the
   campaign seed; infinite at every budget for an empty cell *)
let bsf_curve t e engine ~instance ~budgets =
  match (cell t e engine ~instance Single_start).stored with
  | [] -> Array.map (fun _ -> infinity) budgets
  | stored ->
    let records =
      Array.of_list
        (List.map (fun r -> (normalized_seconds r, float_of_int r.Run_store.cut)) stored)
    in
    let seed = Fingerprint.mix_seed ~base:t.manifest.seed [ "bsf"; Engine.name engine; instance ] in
    Bsf.expected_curve (Rng.create seed) ~records ~budgets ~resamples:200

let bsf_table ~label ?(budgets = default_budgets) t (e : Manifest.experiment) ~instance =
  let curves = List.map (fun engine -> bsf_curve t e engine ~instance ~budgets) e.engines in
  let table = Table.make ~headers:("CPU budget (s)" :: List.map label e.engines) in
  Array.iteri
    (fun i tau ->
      Table.add_row table
        (Printf.sprintf "%.2f" tau
        :: List.map
             (fun curve -> if curve.(i) = infinity then "-" else Printf.sprintf "%.1f" curve.(i))
             curves))
    budgets;
  table

let ranking_table ~label ?(budgets = default_budgets) t (e : Manifest.experiment) =
  let per_instance =
    List.map
      (fun instance ->
        ( instance,
          List.map (fun engine -> (label engine, bsf_curve t e engine ~instance ~budgets)) e.engines
        ))
      e.instances
  in
  let table =
    Table.make ~headers:("Circuit" :: Array.to_list (Array.map (Printf.sprintf "%.2fs") budgets))
  in
  (* no winner where no curve reaches the budget, as in an empty cell *)
  List.iter2
    (fun (instance, winners) (_, curves) ->
      Table.add_row table
        (instance
        :: List.mapi
             (fun i winner ->
               if List.for_all (fun (_, curve) -> curve.(i) = infinity) curves then "-" else winner)
             (Array.to_list winners)))
    (Ranking.dominance_table ~budgets ~per_instance)
    per_instance;
  table

let pareto ~label t (e : Manifest.experiment) ~instance =
  let points =
    List.concat_map
      (fun engine ->
        let c = cell t e engine ~instance Single_start in
        if c.stored = [] then []
        else
          List.map
            (fun k ->
              {
                Pareto.label = Printf.sprintf "%s x%d" (label engine) k;
                cost = Bsf.expected_best ~k (cuts c);
                runtime = float_of_int k *. cpu_per_run c;
              })
            [ 1; 4; 16 ])
      e.engines
  in
  let frontier = Pareto.frontier points in
  let table = Table.make ~headers:[ "Configuration"; "E[best cut]"; "CPU (s)"; "Frontier" ] in
  List.iter
    (fun (p : _ Pareto.point) ->
      Table.add_row table
        [
          p.label;
          Printf.sprintf "%.1f" p.cost;
          Printf.sprintf "%.3f" p.runtime;
          (if List.memq p frontier then "*" else "");
        ])
    points;
  (table, List.map (fun (p : _ Pareto.point) -> (p.label, p.cost, p.runtime)) frontier)

let pct tolerance = Printf.sprintf "%g%%" (100. *. tolerance)

let generate ?(timing = false) t =
  let manifest = t.manifest in
  let jobs = Manifest.jobs manifest in
  let stored = List.length (List.filter (fun job -> lookup t job <> None) jobs) in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# Lab report — campaign %s (seed %d)" manifest.name manifest.seed;
  line "";
  line
    "Rebuilt from the run store alone: %d of %d runs stored.  `(k/N)` marks incomplete \
     cells, `†` cells containing an illegal run."
    stored (List.length jobs);
  List.iter
    (fun (e : Manifest.experiment) ->
      line "";
      line "## %s — tolerance %s, scale %g, %d runs/cell" e.exp_name (pct e.tolerance) e.scale
        e.runs;
      if List.mem Manifest.Single_start e.protocols then begin
        line "";
        Buffer.add_string buf (Table.to_markdown (min_avg_table t e));
        List.iter
          (fun instance ->
            let table, verdict = compare ~timing t e ~instance in
            line "\n### %s\n" instance;
            Buffer.add_string buf (Table.to_markdown table);
            Option.iter (fun v -> line "\n%s" v) verdict)
          e.instances
      end;
      if List.exists (( <> ) Manifest.Single_start) e.protocols then begin
        line "";
        Buffer.add_string buf (Table.to_markdown (cut_cpu_table ~timing t e))
      end)
    manifest.experiments;
  Buffer.contents buf
