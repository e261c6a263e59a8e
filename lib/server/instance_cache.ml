module H = Hypart_hypergraph.Hypergraph

type entry = {
  hypergraph : H.t;
  fingerprint : string;
  bytes : int;
  mutable last_used : int;
}

type t = {
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  (* lab fingerprint -> primary key, so POST /delta can resolve a base
     instance that arrived under any body encoding *)
  by_fingerprint : (string, string) Hashtbl.t;
  max_bytes : int;
  mutable resident_bytes : int;
  mutable tick : int;
}

let create ?(max_bytes = 512 * 1024 * 1024) () =
  if max_bytes < 1 then
    invalid_arg "Instance_cache.create: max_bytes must be >= 1";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 16;
    by_fingerprint = Hashtbl.create 16;
    max_bytes;
    resident_bytes = 0;
    tick = 0;
  }

(* The key of the format tag and the raw request body.  The body is
   hashed as transmitted — before parsing — so a repeat submission is
   recognized without touching the parser at all.

   The key lives only in this cache, so it need not be the persisted
   FNV-1a of {!Hypart_rng.Fnv}: FNV folds one byte per dependent
   multiply, which on a 1.9 MB body costs milliseconds on every
   request.  This is MurmurHash64A in structure, over 8-byte
   little-endian words: each part (the tag, a NUL separator, the body)
   is seeded with its length, folds its words, then its tail bytes,
   and the final avalanche runs once at the end.  Everything stays in
   one function so the running hash is an unboxed local: the only
   allocation is the 16-digit result. *)
let murmur_m = 0xc6a4a7935bd1e995L
let murmur_r = 47
let hex_digits = "0123456789abcdef"

let key_bytes ~format body length =
  if length < 0 || length > Bytes.length body then
    invalid_arg "Instance_cache.key_bytes";
  let h = ref 0L in
  for part = 0 to 2 do
    let s, n =
      match part with
      | 0 -> (Bytes.unsafe_of_string format, String.length format)
      | 1 -> (Bytes.unsafe_of_string "\x00", 1)
      | _ -> (body, length)
    in
    h := Int64.logxor !h (Int64.mul (Int64.of_int n) murmur_m);
    let words = n lsr 3 in
    for i = 0 to words - 1 do
      let k = Int64.mul (Bytes.get_int64_le s (i lsl 3)) murmur_m in
      let k =
        Int64.mul (Int64.logxor k (Int64.shift_right_logical k murmur_r)) murmur_m
      in
      h := Int64.mul (Int64.logxor !h k) murmur_m
    done;
    if n land 7 <> 0 then begin
      let tail = ref 0L in
      for i = n - 1 downto words lsl 3 do
        tail :=
          Int64.logor (Int64.shift_left !tail 8)
            (Int64.of_int (Char.code (Bytes.unsafe_get s i)))
      done;
      h := Int64.mul (Int64.logxor !h !tail) murmur_m
    end
  done;
  h := Int64.logxor !h (Int64.shift_right_logical !h murmur_r);
  h := Int64.mul !h murmur_m;
  h := Int64.logxor !h (Int64.shift_right_logical !h murmur_r);
  let out = Bytes.create 16 in
  for i = 0 to 15 do
    let d = Int64.to_int (Int64.shift_right_logical !h (60 - (4 * i))) land 15 in
    Bytes.unsafe_set out i (String.unsafe_get hex_digits d)
  done;
  Bytes.unsafe_to_string out

let key ~format ~body =
  key_bytes ~format (Bytes.unsafe_of_string body) (String.length body)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | None -> None
      | Some e ->
        t.tick <- t.tick + 1;
        e.last_used <- t.tick;
        Some (e.hypergraph, e.fingerprint))

let find_fingerprint t fp =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_fingerprint fp with
      | None -> None
      | Some k -> (
        match Hashtbl.find_opt t.table k with
        | None -> None
        | Some e ->
          t.tick <- t.tick + 1;
          e.last_used <- t.tick;
          Some e.hypergraph))

(* the caller holds the lock.  Dropping an entry must keep the
   fingerprint index truthful: two keys can carry the same fingerprint
   (the text and binary encodings of one instance), so the index
   re-points to a surviving entry when one exists. *)
let drop_entry t k (e : entry) =
  Hashtbl.remove t.table k;
  t.resident_bytes <- t.resident_bytes - e.bytes;
  match Hashtbl.find_opt t.by_fingerprint e.fingerprint with
  | Some owner when owner = k ->
    Hashtbl.remove t.by_fingerprint e.fingerprint;
    Hashtbl.iter
      (fun k' e' ->
        if
          e'.fingerprint = e.fingerprint
          && not (Hashtbl.mem t.by_fingerprint e.fingerprint)
        then Hashtbl.replace t.by_fingerprint e.fingerprint k')
      t.table
  | _ -> ()

(* evict least-recently-used entries until [need] bytes fit under the
   bound *)
let rec make_room t need =
  if t.resident_bytes + need > t.max_bytes && Hashtbl.length t.table > 0 then begin
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, best) when best.last_used <= e.last_used -> acc
          | _ -> Some (k, e))
        t.table None
    in
    match victim with
    | None -> ()
    | Some (k, e) ->
      drop_entry t k e;
      make_room t need
  end

let entry_overhead = 128

let add t k hypergraph ~fingerprint =
  let bytes =
    H.memory_bytes hypergraph + String.length fingerprint + String.length k
    + entry_overhead
  in
  locked t (fun () ->
      (* an instance too large for the whole cache is served but never
         retained — caching it would just evict everything else *)
      if bytes <= t.max_bytes then begin
        (match Hashtbl.find_opt t.table k with
        | Some old -> drop_entry t k old
        | None -> ());
        make_room t bytes;
        t.tick <- t.tick + 1;
        Hashtbl.replace t.table k
          { hypergraph; fingerprint; bytes; last_used = t.tick };
        Hashtbl.replace t.by_fingerprint fingerprint k;
        t.resident_bytes <- t.resident_bytes + bytes
      end)

let resident t = locked t (fun () -> Hashtbl.length t.table)
let bytes t = locked t (fun () -> t.resident_bytes)
