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

(* Run [starts] timed starts, keeping the first result no later one
   betters; per-start records come back in execution order. *)
let timed_starts ~starts start =
  let best = ref None and records = ref [] in
  for _ = 1 to starts do
    Cancel.check ();
    let (r : Result.t), dt = Machine.cpu_time start in
    let record = { start_cut = r.Result.cut; start_seconds = dt } in
    records := record :: !records;
    note_start record;
    match !best with
    | Some b when not (Result.better r b) -> ()
    | _ -> best := Some r
  done;
  (Option.get !best, List.rev !records)

let multistart ?polish_best (engine : t) rng problem ~starts =
  if starts < 1 then invalid_arg "Engine.multistart: starts must be >= 1";
  let best, records = timed_starts ~starts (fun () -> run engine rng problem None) in
  let best = match polish_best with None -> best | Some f -> f best in
  (best, records)

(* ------------------------------------------------------------------ *)
(* Seeded multistart.  Each seed gets a fresh RNG, so a start's result
   does not depend on where it runs; the winner is picked by
   Result.better with ties broken toward the numerically lowest seed,
   making the outcome independent of seed-list order, domain count and
   scheduling. *)

let run_seed (engine : t) problem seed =
  Cancel.check ();
  let rng = Rng.create seed in
  Machine.cpu_time (fun () -> run engine rng problem None)

let pick_best seeds results =
  List.fold_left2
    (fun best seed (r, _) ->
      match best with
      | None -> Some (seed, r)
      | Some (bseed, b) ->
        if Result.better r b then Some (seed, r)
        else if (not (Result.better b r)) && seed < bseed then Some (seed, r)
        else best)
    None seeds results
  |> Option.get

let multistart_seeds ?domains (engine : t) problem ~seeds =
  if seeds = [] then invalid_arg "Engine.multistart_seeds: empty seed list";
  let results =
    match domains with
    | None | Some 1 -> List.map (run_seed engine problem) seeds
    | Some domains -> Parallel.map_seeds ~domains ~seeds (run_seed engine problem)
  in
  let records =
    List.map
      (fun ((r : Result.t), dt) ->
        { start_cut = r.Result.cut; start_seconds = dt })
      results
  in
  List.iter note_start records;
  (pick_best seeds results, records)
