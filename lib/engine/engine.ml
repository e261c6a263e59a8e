module Rng = Hypart_rng.Rng
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Tel = Hypart_telemetry.Control
module Metrics = Hypart_telemetry.Metrics

module Result = struct
  type t = {
    solution : Bipartition.t;
    cut : int;
    legal : bool;
    stats : (string * float) list;
  }

  (* legality first, then cut: an illegal solution never beats a legal
     one, whatever its cut *)
  let better a b = (a.legal && not b.legal) || (a.legal = b.legal && a.cut < b.cut)
  let stat t name = List.assoc_opt name t.stats

  let add_stats a b =
    List.map
      (fun (n, v) ->
        match List.assoc_opt n b with Some w -> (n, v +. w) | None -> (n, v))
      a
end

type t = {
  name : string;
  description : string;
  run : Rng.t -> Problem.t -> Bipartition.t option -> Result.t;
}

let name e = e.name
let description e = e.description
let run e rng problem initial = e.run rng problem initial
let make ~name ~description run = { name; description; run }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let register engine =
  let n = name engine in
  if n = "" then invalid_arg "Engine.register: empty engine name";
  if Hashtbl.mem registry n then
    invalid_arg (Printf.sprintf "Engine.register: duplicate engine %S" n);
  Hashtbl.replace registry n engine

let names () =
  Hashtbl.fold (fun n _ acc -> n :: acc) registry [] |> List.sort compare

let all () = List.map (Hashtbl.find registry) (names ())
let find n = Hashtbl.find_opt registry n

let find_exn n =
  match find n with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "unknown engine %S (registered: %s)" n
         (String.concat " | " (names ())))

(* ------------------------------------------------------------------ *)
(* Multistart combinators                                              *)

type start = { start_cut : int; start_seconds : float }

let cpu_seconds records =
  List.fold_left (fun acc r -> acc +. r.start_seconds) 0. records

let note_start r =
  if Tel.is_enabled () then begin
    Metrics.incr "engine.starts";
    Metrics.observe "engine.start_cut" (float_of_int r.start_cut);
    Metrics.observe "engine.start_seconds" r.start_seconds
  end

let timed_start start =
  Cancel.check ();
  Machine.cpu_time start

(* The first result no later start betters, and the per-start records
   in start order. *)
let keep_best timed =
  let records =
    List.map
      (fun ((r : Result.t), dt) -> { start_cut = r.cut; start_seconds = dt })
      timed
  in
  List.iter note_start records;
  let first, _ = List.hd timed in
  ( List.fold_left
      (fun best (r, _) -> if Result.better r best then r else best)
      first (List.tl timed),
    records )

let multistart ?polish_best (engine : t) rng problem ~starts =
  if starts < 1 then invalid_arg "Engine.multistart: starts must be >= 1";
  let best, records =
    keep_best
      (List.init starts (fun _ ->
           timed_start (fun () -> run engine rng problem None)))
  in
  let best = match polish_best with None -> best | Some f -> f best in
  (best, records)

(* Seeded multistart: start i runs from a fresh RNG seeded [seed + i],
   so a start's result does not depend on where it runs, and the
   winner does not depend on the domain count or scheduling. *)
let multistart_seeds ?domains (engine : t) problem ~seed ~starts =
  if starts < 1 then invalid_arg "Engine.multistart_seeds: starts must be >= 1";
  let start i =
    let rng = Rng.create (seed + i) in
    timed_start (fun () -> run engine rng problem None)
  in
  keep_best
    (match domains with
    | None | Some 1 -> List.init starts start
    | Some domains ->
      Parallel.map_seeds ~domains ~seeds:(List.init starts Fun.id) start)
