module Rng = Hypart_rng.Rng

(* Intrusive doubly-linked bucket lists.  Sentinel values in the link
   arrays: [absent] marks a vertex not in the container, [nil] ends a
   list.  Bucket index = key + max_key. *)

let absent = -2
let nil = -1

type t = {
  max_key : int;
  insertion : Fm_config.insertion_order;
  mutable rng : Rng.t;
  prev : int array;
  next : int array;
  vkey : int array;
  vside : int array;
  heads : int array array;  (* heads.(side).(key + max_key) *)
  tails : int array array;
  maxptr : int array;       (* upper bound on the max nonempty bucket index *)
  (* occupied range since the last [clear]: every nonempty bucket lies
     in [lo.(side), hi.(side)] ([lo > hi] = nothing touched), so [clear]
     scans only the range actually used instead of all 2*max_key+1
     buckets *)
  lo : int array;
  hi : int array;
  count : int array;
  mutable corked : bool;
  (* lifetime op counters (plain increments — cheap enough to stay on);
     flushed into the telemetry registry by the engine per run.
     Repositions ([update_key]/[refresh]) are counted on their own and
     do NOT inflate inserts/removes, so [gain.inserts]/[gain.removes]
     report true container traffic. *)
  mutable n_inserts : int;
  mutable n_removes : int;
  mutable n_repositions : int;
}

type ops = { inserts : int; removes : int; repositions : int }

let ops c =
  { inserts = c.n_inserts; removes = c.n_removes; repositions = c.n_repositions }

let create ~num_vertices ~max_key ~insertion ~rng =
  let nbuckets = (2 * max_key) + 1 in
  {
    max_key;
    insertion;
    rng;
    prev = Array.make num_vertices absent;
    next = Array.make num_vertices absent;
    vkey = Array.make num_vertices 0;
    vside = Array.make num_vertices 0;
    heads = [| Array.make nbuckets nil; Array.make nbuckets nil |];
    tails = [| Array.make nbuckets nil; Array.make nbuckets nil |];
    maxptr = [| 0; 0 |];
    lo = [| nbuckets; nbuckets |];
    hi = [| -1; -1 |];
    count = [| 0; 0 |];
    corked = false;
    n_inserts = 0;
    n_removes = 0;
    n_repositions = 0;
  }

let capacity c = Array.length c.prev
let max_key c = c.max_key
let insertion c = c.insertion
let set_rng c rng = c.rng <- rng
let mem c v = c.prev.(v) <> absent
let key c v = c.vkey.(v)
let size c side = c.count.(side)

let clear c =
  for side = 0 to 1 do
    let heads = c.heads.(side) and tails = c.tails.(side) in
    for b = c.lo.(side) to c.hi.(side) do
      let v = ref heads.(b) in
      while !v <> nil do
        let n = c.next.(!v) in
        c.prev.(!v) <- absent;
        c.next.(!v) <- absent;
        v := n
      done;
      heads.(b) <- nil;
      tails.(b) <- nil
    done;
    c.lo.(side) <- Array.length heads;
    c.hi.(side) <- -1;
    c.maxptr.(side) <- 0;
    c.count.(side) <- 0
  done

let push_front c side b v =
  let heads = c.heads.(side) and tails = c.tails.(side) in
  let h = heads.(b) in
  c.prev.(v) <- nil;
  c.next.(v) <- h;
  if h <> nil then c.prev.(h) <- v else tails.(b) <- v;
  heads.(b) <- v

let push_back c side b v =
  let heads = c.heads.(side) and tails = c.tails.(side) in
  let t = tails.(b) in
  c.next.(v) <- nil;
  c.prev.(v) <- t;
  if t <> nil then c.next.(t) <- v else heads.(b) <- v;
  tails.(b) <- v

(* Raw link/unlink, shared by insert/remove and the repositioning
   operations so that repositions don't inflate the traffic counters. *)
let link c ~side ~key v =
  assert (not (mem c v));
  assert (abs key <= c.max_key);
  let b = key + c.max_key in
  c.vkey.(v) <- key;
  c.vside.(v) <- side;
  (match c.insertion with
   | Fm_config.Lifo -> push_front c side b v
   | Fm_config.Fifo -> push_back c side b v
   | Fm_config.Random ->
     if Rng.bool c.rng then push_front c side b v else push_back c side b v);
  if b > c.maxptr.(side) then c.maxptr.(side) <- b;
  if b < c.lo.(side) then c.lo.(side) <- b;
  if b > c.hi.(side) then c.hi.(side) <- b;
  c.count.(side) <- c.count.(side) + 1

let unlink c v =
  let side = c.vside.(v) in
  let b = c.vkey.(v) + c.max_key in
  let p = c.prev.(v) and n = c.next.(v) in
  if p <> nil then c.next.(p) <- n else c.heads.(side).(b) <- n;
  if n <> nil then c.prev.(n) <- p else c.tails.(side).(b) <- p;
  c.prev.(v) <- absent;
  c.next.(v) <- absent;
  c.count.(side) <- c.count.(side) - 1

let insert c ~side ~key v =
  link c ~side ~key v;
  c.n_inserts <- c.n_inserts + 1

let remove c v =
  if mem c v then begin
    unlink c v;
    c.n_removes <- c.n_removes + 1
  end

let update_key c v ~delta =
  assert (mem c v);
  let side = c.vside.(v) in
  let key = c.vkey.(v) + delta in
  unlink c v;
  link c ~side ~key v;
  c.n_repositions <- c.n_repositions + 1

let refresh c v =
  assert (mem c v);
  let side = c.vside.(v) and key = c.vkey.(v) in
  unlink c v;
  link c ~side ~key v;
  c.n_repositions <- c.n_repositions + 1

(* Decay the max pointer past empty buckets; returns the index of the
   highest nonempty bucket or [nil].  When the side fully drains the
   pointer is reset to 0, not left at the old high index — otherwise
   every subsequent select/insert would rescan the dead bucket range. *)
let settle_max c side =
  let heads = c.heads.(side) in
  let b = ref c.maxptr.(side) in
  while !b >= 0 && heads.(!b) = nil do
    decr b
  done;
  c.maxptr.(side) <- (if !b >= 0 then !b else 0);
  !b

let head_of_max_bucket c ~side =
  let b = settle_max c side in
  if b < 0 then None else Some c.heads.(side).(b)

let last_select_corked c = c.corked

(* Loops, not local recursive functions: a selection runs once per
   move and allocates nothing. *)
let select c ~side ~legal ~illegal_head =
  c.corked <- false;
  let heads = c.heads.(side) in
  let b = settle_max c side in
  if b < 0 then nil
  else
    match illegal_head with
    | Fm_config.Skip_side ->
      let h = heads.(b) in
      if legal h then h
      else begin
        c.corked <- true;
        nil
      end
    | Fm_config.Skip_bucket ->
      let b = ref b and found = ref nil in
      while !found = nil && !b >= 0 do
        let h = heads.(!b) in
        if h <> nil then
          if legal h then found := h else c.corked <- true;
        decr b
      done;
      !found
    | Fm_config.Scan_bucket ->
      let b = ref b and found = ref nil in
      while !found = nil && !b >= 0 do
        let v = ref heads.(!b) in
        while !found = nil && !v <> nil do
          if legal !v then found := !v
          else begin
            c.corked <- true;
            v := c.next.(!v)
          end
        done;
        decr b
      done;
      !found
