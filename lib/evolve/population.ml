module Bipartition = Hypart_partition.Bipartition
module Metrics = Hypart_telemetry.Metrics

type member = { id : int; candidate : Pop_log.entry; solution : Bipartition.t }

let beats a b =
  let a' = a.candidate and b' = b.candidate in
  (a'.legal && not b'.legal)
  || (a'.legal = b'.legal
     && (a'.cut < b'.cut || (a'.cut = b'.cut && a.id < b.id)))

type t = {
  cap : int;
  mutable members : member list;  (* id-ascending *)
  mutable next_id : int;
  (* (id_lo, id_hi) -> similarity; pairs die with their members *)
  sims : (int * int, float) Hashtbl.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Population.create: capacity must be >= 1";
  {
    cap = capacity;
    members = [];
    next_id = 0;
    sims = Hashtbl.create 64;
  }

let size t = List.length t.members
let members t = t.members

let best t =
  match t.members with
  | [] -> None
  | m :: rest ->
    Some (List.fold_left (fun acc m -> if beats m acc then m else acc) m rest)

(* The most similar pair, scanning ordered pairs in id order; strict
   [>] keeps the first maximal pair, so ties resolve toward the
   lexicographically smallest (id, id). *)
let most_similar_pair t =
  let best = ref None in
  let rec outer = function
    | [] | [ _ ] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          let s = Hashtbl.find t.sims (a.id, b.id) in
          let better =
            match !best with None -> true | Some (_, _, s') -> s > s'
          in
          if better then best := Some (a, b, s))
        rest;
      outer rest
  in
  outer t.members;
  !best

let insert t candidate solution =
  let m = { id = t.next_id; candidate; solution } in
  t.next_id <- t.next_id + 1;
  List.iter
    (fun o ->
      Hashtbl.replace t.sims (o.id, m.id)
        (Bipartition.similarity o.solution m.solution))
    t.members;
  t.members <- t.members @ [ m ];
  if List.length t.members <= t.cap then (m, None)
  else begin
    let a, b, _ = Option.get (most_similar_pair t) in
    let evictee = if beats a b then b else a in
    t.members <- List.filter (fun o -> o.id <> evictee.id) t.members;
    Hashtbl.filter_map_inplace
      (fun (lo, hi) s ->
        if lo = evictee.id || hi = evictee.id then None else Some s)
      t.sims;
    Metrics.incr "evolve.evictions";
    (m, Some evictee)
  end
