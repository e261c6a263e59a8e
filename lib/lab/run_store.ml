module Jsonl = Hypart_telemetry.Jsonl
module Tel = Hypart_telemetry.Control
module Metrics = Hypart_telemetry.Metrics

type record = {
  engine : string;
  config : string;
  instance : string;
  seed : int;
  cut : int;
  legal : bool;
  seconds : float;
  machine_factor : float;
  git : string;
  stats : (string * float) list;
}

let key ~engine ~config ~instance ~seed =
  Printf.sprintf "%s/%s/%s/%d" engine config instance seed

let record_key r =
  key ~engine:r.engine ~config:r.config ~instance:r.instance ~seed:r.seed

let filename dir = Filename.concat dir "runs.jsonl"

let record_fields r =
  Jsonl.
    [
      ("engine", String r.engine);
      ("config", String r.config);
      ("instance", String r.instance);
      ("seed", Int r.seed);
      ("cut", Int r.cut);
      ("legal", Bool r.legal);
      ("seconds", Float r.seconds);
      ("machine", Float r.machine_factor);
      ("git", String r.git);
    ]
  @ List.map (fun (name, v) -> ("stat." ^ name, Jsonl.Float v)) r.stats

let record_to_line r = Jsonl.to_line (record_fields r)

let record_of_line line =
  match Jsonl.of_line line with
  | None -> None
  | Some fields ->
    let ( let* ) = Option.bind in
    let* engine = Jsonl.string_member "engine" fields in
    let* config = Jsonl.string_member "config" fields in
    let* instance = Jsonl.string_member "instance" fields in
    let* seed = Jsonl.int_member "seed" fields in
    let* cut = Jsonl.int_member "cut" fields in
    let* legal = Jsonl.bool_member "legal" fields in
    let* seconds = Jsonl.float_member "seconds" fields in
    let* machine_factor = Jsonl.float_member "machine" fields in
    let* git = Jsonl.string_member "git" fields in
    (* every numeric [stat.<name>] member, in line order *)
    let stats =
      List.filter_map
        (fun (member, _) ->
          if not (String.starts_with ~prefix:"stat." member) then None
          else
            Option.map
              (fun v -> (String.sub member 5 (String.length member - 5), v))
              (Jsonl.float_member member fields))
        fields
    in
    Some { engine; config; instance; seed; cut; legal; seconds; machine_factor; git; stats }

(* Read a store file: its index, the first record of every key in
   file order, and the counts of malformed lines and of records that
   repeat an earlier key.  The one "first record wins" rule. *)
let scan dir =
  let index = Hashtbl.create 64 in
  let firsts, dropped, duplicates =
    Jsonl.fold (filename dir)
      (fun (firsts, dropped, duplicates) line ->
        match record_of_line line with
        | None -> (firsts, dropped + 1, duplicates)
        | Some r ->
          let k = record_key r in
          if Hashtbl.mem index k then (firsts, dropped, duplicates + 1)
          else begin
            Hashtbl.add index k r;
            (r :: firsts, dropped, duplicates)
          end)
      ([], 0, 0)
  in
  (index, List.rev firsts, dropped, duplicates)

type t = {
  index : (string, record) Hashtbl.t;
  log : Jsonl.t option;
  dropped : int;
  lock : Mutex.t;
}

let load dir =
  let index, _, dropped, _ = scan dir in
  { index; log = None; dropped; lock = Mutex.create () }

(* the log opens first: it terminates a torn last line before the
   index reads the file *)
let open_store dir =
  let log = Jsonl.open_log (filename dir) in
  { (load dir) with log = Some log }

let in_memory () =
  { index = Hashtbl.create 64; log = None; dropped = 0; lock = Mutex.create () }

let close t = Option.iter Jsonl.close t.log
let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.index)
let dropped t = t.dropped

let find ?(quiet = false) t ~key =
  let r = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.index key) in
  if (not quiet) && Tel.is_enabled () then
    Metrics.incr (match r with Some _ -> "lab.cache_hits" | None -> "lab.cache_misses");
  r

(* a float as the log keeps it, so a recorded run reads the same
   before and after a reload *)
let as_logged f = Float.of_string (Hypart_telemetry.Json_out.number f)

let record t ~engine ~config ~instance ~seed ~cut ~legal ~seconds ~stats =
  let r =
    {
      engine;
      config;
      instance;
      seed;
      cut;
      legal;
      seconds = as_logged seconds;
      machine_factor = as_logged (Provenance.machine_factor ());
      git = Provenance.git_describe ();
      stats = List.map (fun (name, v) -> (name, as_logged v)) stats;
    }
  in
  let k = record_key r in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.index k with
      | Some first -> first
      | None ->
        Option.iter (fun log -> Jsonl.append log (record_fields r)) t.log;
        Hashtbl.add t.index k r;
        r)

(* -- maintenance -- *)

let compact dir =
  let _, kept, corrupt, duplicates = scan dir in
  let path = filename dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc (record_to_line r);
          output_char oc '\n')
        kept);
  Sys.rename tmp path;
  (List.length kept, corrupt + duplicates)
