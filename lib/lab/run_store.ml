module Jsonl = Hypart_telemetry.Jsonl

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
    Some { engine; config; instance; seed; cut; legal; seconds; machine_factor; git }

type t = Jsonl.t

let open_store dir = Jsonl.open_log (filename dir)
let append t r = Jsonl.append t (record_fields r)
let close = Jsonl.close

let load dir =
  let records, dropped =
    Jsonl.fold (filename dir)
      (fun (records, dropped) line ->
        match record_of_line line with
        | Some r -> (r :: records, dropped)
        | None -> (records, dropped + 1))
      ([], 0)
  in
  (List.rev records, dropped)

(* -- maintenance -- *)

let compact dir =
  let records, corrupt = load dir in
  let seen = Hashtbl.create 256 in
  let kept, duplicates =
    List.fold_left
      (fun (kept, dups) r ->
        let k = record_key r in
        if Hashtbl.mem seen k then (kept, dups + 1)
        else begin
          Hashtbl.add seen k ();
          (r :: kept, dups)
        end)
      ([], 0) records
  in
  let kept = List.rev kept in
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
