module Jsonl = Hypart_telemetry.Jsonl

type entry = {
  gen : int;
  slot : int;
  kind : string;
  seed : int;
  cut : int;
  legal : bool;
  seconds : float;
  assignment : int array;
}

exception Mismatch of { expected : string; found : string }

let filename dir = Filename.concat dir "population.jsonl"

let sides_to_string sides =
  String.init (Array.length sides) (fun i ->
      if sides.(i) = 0 then '0' else '1')

let sides_of_string s =
  let ok = ref true in
  let sides =
    Array.init (String.length s) (fun i ->
        match s.[i] with
        | '0' -> 0
        | '1' -> 1
        | _ ->
          ok := false;
          0)
  in
  if !ok && Array.length sides > 0 then Some sides else None

let entry_fields e =
  Jsonl.
    [
      ("gen", Int e.gen);
      ("slot", Int e.slot);
      ("kind", String e.kind);
      ("seed", Int e.seed);
      ("cut", Int e.cut);
      ("legal", Bool e.legal);
      ("seconds", Float e.seconds);
      ("sides", String (sides_to_string e.assignment));
    ]

let entry_of_line line =
  match Jsonl.of_line line with
  | None -> None
  | Some fields ->
    let ( let* ) = Option.bind in
    let* gen = Jsonl.int_member "gen" fields in
    let* slot = Jsonl.int_member "slot" fields in
    let* kind = Jsonl.string_member "kind" fields in
    let* seed = Jsonl.int_member "seed" fields in
    let* cut = Jsonl.int_member "cut" fields in
    let* legal = Jsonl.bool_member "legal" fields in
    let* seconds = Jsonl.float_member "seconds" fields in
    let* sides = Jsonl.string_member "sides" fields in
    let* assignment = sides_of_string sides in
    Some { gen; slot; kind; seed; cut; legal; seconds; assignment }

let header_fields campaign =
  Jsonl.[ ("proto", String "evolve-v1"); ("campaign", String campaign) ]

let header_of_line line =
  Option.bind (Jsonl.of_line line) (Jsonl.string_member "campaign")

type t = {
  log : Jsonl.t;
  index : (int * int, entry) Hashtbl.t;
  dropped : int;
}

let open_log ~dir ~campaign =
  let path = filename dir in
  let index = Hashtbl.create 64 in
  let header, dropped =
    Jsonl.fold path
      (fun (header, dropped) line ->
        match header_of_line line with
        | Some found ->
          if found <> campaign then
            raise (Mismatch { expected = campaign; found });
          (true, dropped)
        | None -> (
          match entry_of_line line with
          | Some e ->
            Hashtbl.replace index (e.gen, e.slot) e;
            (header, dropped)
          | None -> (header, dropped + 1)))
      (false, 0)
  in
  let log = Jsonl.open_log path in
  (* a crash that truncated the header (or a pre-header crash) leaves
     no intact stamp; restore it so the next open can still verify *)
  if not header then Jsonl.append log (header_fields campaign);
  { log; index; dropped }

let find t ~gen ~slot = Hashtbl.find_opt t.index (gen, slot)

let append t e =
  Jsonl.append t.log (entry_fields e);
  Hashtbl.replace t.index (e.gen, e.slot) e

let entries t = Hashtbl.length t.index
let dropped t = t.dropped
let close t = Jsonl.close t.log
