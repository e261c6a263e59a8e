module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Descriptive = Hypart_stats.Descriptive
module Bootstrap = Hypart_stats.Bootstrap

(* Instance fingerprints only — the report never builds problems or
   runs engines.  Keyed by (instance, scale); the fingerprint does not
   depend on tolerance. *)
let instance_fps (manifest : Manifest.t) =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (e : Manifest.experiment) ->
      List.iter
        (fun instance ->
          let k = (instance, e.Manifest.scale) in
          if not (Hashtbl.mem table k) then
            Hashtbl.add table k
              (Fingerprint.of_instance
                 (Suite.instance ~scale:e.Manifest.scale instance)))
        e.Manifest.instances)
    manifest.Manifest.experiments;
  table

type cell = {
  stored : Run_store.record list;  (** in run-index order *)
  expected : int;
}

(* Look every job of a cell up by its content address; the result is a
   pure function of (manifest, store contents) — store file order, and
   hence domain scheduling, cannot influence it. *)
let cell_of store fps (jobs : Manifest.job list) =
  let stored =
    List.filter_map
      (fun (job : Manifest.job) ->
        let instance_fp =
          Hashtbl.find fps
            (job.Manifest.instance, job.Manifest.experiment.Manifest.scale)
        in
        Run_store.find ~quiet:true store ~key:(Manifest.job_key ~instance_fp job))
      jobs
  in
  { stored; expected = List.length jobs }

let pct tolerance = Printf.sprintf "%g%%" (100. *. tolerance)

let cell_summary cell =
  if cell.stored = [] then Printf.sprintf "(0/%d)" cell.expected
  else begin
    let cuts = Array.of_list (List.map (fun r -> r.Run_store.cut) cell.stored) in
    let base = Descriptive.min_avg cuts in
    let illegal =
      List.length (List.filter (fun r -> not r.Run_store.legal) cell.stored)
    in
    let base = if illegal > 0 then base ^ "†" else base in
    if List.length cell.stored < cell.expected then
      Printf.sprintf "%s (%d/%d)" base (List.length cell.stored) cell.expected
    else base
  end

let md_row cells = "| " ^ String.concat " | " cells ^ " |"

let md_rule n = md_row (List.init n (fun _ -> "---"))

let generate ?(timing = false) ~store_dir ~(manifest : Manifest.t) () =
  let store = Run_store.load store_dir in
  let fps = instance_fps manifest in
  (* group the flat job list back into cells, preserving run order *)
  let cell_jobs : (string, Manifest.job list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun job ->
      let id = Manifest.cell_id job in
      let prev = try Hashtbl.find cell_jobs id with Not_found -> [] in
      Hashtbl.replace cell_jobs id (job :: prev))
    (Manifest.jobs manifest);
  let lookup_cell e ~engine ~instance =
    let id =
      Printf.sprintf "%s/%s/%s" e.Manifest.exp_name engine instance
    in
    let jobs = try List.rev (Hashtbl.find cell_jobs id) with Not_found -> [] in
    cell_of store fps jobs
  in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# Lab report — campaign %s (seed %d)" manifest.Manifest.name
    manifest.Manifest.seed;
  line "";
  let total_expected = ref 0 and total_stored = ref 0 in
  let sections = Buffer.create 4096 in
  let sline fmt =
    Printf.ksprintf (fun s -> Buffer.add_string sections (s ^ "\n")) fmt
  in
  List.iter
    (fun (e : Manifest.experiment) ->
      sline "## %s — tolerance %s, scale %g, %d runs/cell" e.Manifest.exp_name
        (pct e.Manifest.tolerance) e.Manifest.scale e.Manifest.runs;
      sline "";
      sline "%s" (md_row ("engine" :: e.Manifest.instances));
      sline "%s" (md_rule (1 + List.length e.Manifest.instances));
      List.iter
        (fun engine ->
          let cells =
            List.map
              (fun instance ->
                let cell = lookup_cell e ~engine ~instance in
                total_expected := !total_expected + cell.expected;
                total_stored := !total_stored + List.length cell.stored;
                cell_summary cell)
              e.Manifest.instances
          in
          sline "%s" (md_row (engine :: cells)))
        e.Manifest.engines;
      sline "";
      (* per-cell detail: bootstrap CI of the mean, deterministic via a
         seed derived from the campaign seed and the cell identity *)
      let detail_headers =
        [ "cell"; "n"; "min/avg"; "95% CI of mean" ]
        @ (if timing then [ "CPU s/run" ] else [])
      in
      sline "%s" (md_row detail_headers);
      sline "%s" (md_rule (List.length detail_headers));
      List.iter
        (fun engine ->
          List.iter
            (fun instance ->
              let cell = lookup_cell e ~engine ~instance in
              let id =
                Printf.sprintf "%s:%s" engine instance
              in
              if cell.stored = [] then
                sline "%s"
                  (md_row
                     ([ id; "0"; "—"; "—" ]
                     @ (if timing then [ "—" ] else [])))
              else begin
                let cuts =
                  Array.of_list (List.map (fun r -> r.Run_store.cut) cell.stored)
                in
                let xs = Descriptive.of_ints cuts in
                let ci_seed =
                  Fingerprint.mix_seed ~base:manifest.Manifest.seed
                    [ "ci"; e.Manifest.exp_name; engine; instance ]
                in
                let ci = Bootstrap.mean_ci (Rng.create ci_seed) xs in
                let row =
                  [
                    id;
                    string_of_int (List.length cell.stored);
                    Descriptive.min_avg cuts;
                    Printf.sprintf "[%.1f, %.1f]" ci.Bootstrap.lo ci.Bootstrap.hi;
                  ]
                  @
                  if timing then
                    [
                      Printf.sprintf "%.3f"
                        (List.fold_left
                           (fun acc r -> acc +. r.Run_store.seconds)
                           0. cell.stored
                        /. float_of_int (List.length cell.stored));
                    ]
                  else []
                in
                sline "%s" (md_row row)
              end)
            e.Manifest.instances)
        e.Manifest.engines;
      sline "")
    manifest.Manifest.experiments;
  line
    "Rebuilt from the run store alone: %d of %d runs stored.  Cells show \
     min/avg cut; `(k/N)` marks incomplete cells, `†` cells containing an \
     illegal run."
    !total_stored !total_expected;
  line "";
  Buffer.add_buffer buf sections;
  Buffer.contents buf
