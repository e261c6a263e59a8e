(* Global metrics registry: named counters, gauges and value
   histograms.  Counters use [Atomic] increments and the registry
   itself is mutex-guarded, so concurrent updates from several domains
   (e.g. under [Parallel.map_seeds]) are safe.  Recording is a no-op
   while {!Control} is disabled; reads and exports always work.

   Histograms retain at most [reservoir_cap] samples.  Below the cap
   every sample is kept and quantiles are exact; above it a seeded
   reservoir (Vitter's algorithm R with a per-histogram xorshift
   stream) keeps a uniform sample, while count/sum/min/max stay exact
   running aggregates.  A long-lived daemon therefore observes into
   [server.request_seconds] forever without unbounded growth. *)

let reservoir_cap = 4096

type histo = {
  lock : Mutex.t;
  mutable values : float array;  (* retained samples (reservoir) *)
  mutable len : int;             (* retained count, <= reservoir_cap *)
  mutable n_total : int;         (* exact number of observations *)
  mutable sum_total : float;     (* exact running sum *)
  mutable min_v : float;
  mutable max_v : float;
  mutable rng : int;             (* xorshift state, seeded from the name *)
}

type value =
  | Counter of int Atomic.t
  | Gauge of float Atomic.t
  | Histogram of histo

type stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type entry =
  | E_counter of string * int
  | E_gauge of string * float
  | E_histogram of string * stats

let registry : (string, value) Hashtbl.t = Hashtbl.create 64
let reg_lock = Mutex.create ()

(* Derived gauges evaluated at snapshot time.  Probes let other
   telemetry modules (Trace, Event_log) publish self-metrics without a
   dependency cycle on this registry; they survive [reset] because they
   are registered once at module initialisation. *)
let probes : (string, unit -> float) Hashtbl.t = Hashtbl.create 8
let probes_lock = Mutex.create ()

let register_probe name f =
  Mutex.lock probes_lock;
  Hashtbl.replace probes name f;
  Mutex.unlock probes_lock

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or_create name make =
  Mutex.lock reg_lock;
  let v =
    match Hashtbl.find_opt registry name with
    | Some v -> v
    | None ->
      let v = make () in
      Hashtbl.add registry name v;
      v
  in
  Mutex.unlock reg_lock;
  v

let find name =
  Mutex.lock reg_lock;
  let v = Hashtbl.find_opt registry name in
  Mutex.unlock reg_lock;
  v

let wrong_kind name v expected =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name v) expected)

(* -- recording -- *)

let incr ?(by = 1) name =
  if Control.is_enabled () then
    match find_or_create name (fun () -> Counter (Atomic.make 0)) with
    | Counter c -> ignore (Atomic.fetch_and_add c by)
    | v -> wrong_kind name v "counter"

let set_gauge name x =
  if Control.is_enabled () then
    match find_or_create name (fun () -> Gauge (Atomic.make 0.0)) with
    | Gauge g -> Atomic.set g x
    | v -> wrong_kind name v "gauge"

(* FNV-1a over the metric name: the reservoir's replacement stream is
   deterministic per name, so runs are reproducible.  xorshift needs a
   nonzero state. *)
let seed_of_name name =
  let h = Int64.to_int (Hypart_rng.Fnv.add_string Hypart_rng.Fnv.offset name) land max_int in
  if h = 0 then 0x2545F491 else h

let next_rand h =
  let s = h.rng in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  let s = s land max_int in
  let s = if s = 0 then 0x2545F491 else s in
  h.rng <- s;
  s

let make_histo name =
  Histogram
    {
      lock = Mutex.create ();
      values = Array.make 64 0.0;
      len = 0;
      n_total = 0;
      sum_total = 0.0;
      min_v = nan;
      max_v = nan;
      rng = seed_of_name name;
    }

let observe name x =
  if Control.is_enabled () then
    match find_or_create name (fun () -> make_histo name) with
    | Histogram h ->
      Mutex.lock h.lock;
      h.n_total <- h.n_total + 1;
      h.sum_total <- h.sum_total +. x;
      if h.n_total = 1 then begin
        h.min_v <- x;
        h.max_v <- x
      end
      else begin
        if x < h.min_v then h.min_v <- x;
        if x > h.max_v then h.max_v <- x
      end;
      if h.len < reservoir_cap then begin
        if h.len = Array.length h.values then begin
          let bigger =
            Array.make (Stdlib.min reservoir_cap (2 * h.len)) 0.0
          in
          Array.blit h.values 0 bigger 0 h.len;
          h.values <- bigger
        end;
        h.values.(h.len) <- x;
        h.len <- h.len + 1
      end
      else begin
        (* algorithm R: replace a random slot with probability cap/n *)
        let j = next_rand h mod h.n_total in
        if j < reservoir_cap then h.values.(j) <- x
      end;
      Mutex.unlock h.lock
    | v -> wrong_kind name v "histogram"

(* -- reading -- *)

let counter_value name =
  match find name with Some (Counter c) -> Atomic.get c | _ -> 0

let gauge_value name =
  match find name with Some (Gauge g) -> Atomic.get g | _ -> 0.0

let sorted_values h =
  Mutex.lock h.lock;
  let copy = Array.sub h.values 0 h.len in
  Mutex.unlock h.lock;
  Array.sort compare copy;
  copy

(* Nearest-rank quantile on the sorted sample. *)
let quantile_of_sorted xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    xs.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
  end

let stats_of_histo h =
  let xs = sorted_values h in
  Mutex.lock h.lock;
  let n_total = h.n_total
  and sum_total = h.sum_total
  and min_v = h.min_v
  and max_v = h.max_v in
  Mutex.unlock h.lock;
  if n_total = 0 then
    {
      count = 0;
      sum = 0.0;
      min = nan;
      max = nan;
      mean = nan;
      p50 = nan;
      p90 = nan;
      p99 = nan;
    }
  else
    {
      count = n_total;
      sum = sum_total;
      min = min_v;
      max = max_v;
      mean = sum_total /. float_of_int n_total;
      p50 = quantile_of_sorted xs 0.5;
      p90 = quantile_of_sorted xs 0.9;
      p99 = quantile_of_sorted xs 0.99;
    }

let histogram_stats name =
  match find name with Some (Histogram h) -> Some (stats_of_histo h) | _ -> None

let histogram_retained name =
  match find name with
  | Some (Histogram h) ->
    Mutex.lock h.lock;
    let len = h.len in
    Mutex.unlock h.lock;
    len
  | _ -> 0

let quantile name q =
  match find name with
  | Some (Histogram h) ->
    let xs = sorted_values h in
    if Array.length xs = 0 then None else Some (quantile_of_sorted xs q)
  | _ -> None

let snapshot () =
  Mutex.lock reg_lock;
  let entries = Hashtbl.fold (fun name v acc -> (name, v) :: acc) registry [] in
  Mutex.unlock reg_lock;
  let registered = List.map fst entries in
  Mutex.lock probes_lock;
  let probe_entries =
    Hashtbl.fold
      (fun name f acc ->
        if List.mem name registered then acc
        else
          match f () with
          | v -> E_gauge (name, v) :: acc
          | exception _ -> acc)
      probes []
  in
  Mutex.unlock probes_lock;
  (entries
  |> List.map (fun (name, v) ->
         match v with
         | Counter c -> E_counter (name, Atomic.get c)
         | Gauge g -> E_gauge (name, Atomic.get g)
         | Histogram h -> E_histogram (name, stats_of_histo h)))
  @ probe_entries
  |> List.sort (fun a b ->
         let name = function
           | E_counter (n, _) | E_gauge (n, _) | E_histogram (n, _) -> n
         in
         compare (name a) (name b))

let reset () =
  Mutex.lock reg_lock;
  Hashtbl.reset registry;
  Mutex.unlock reg_lock

(* -- export -- *)

let stats_fields s =
  [
    ("count", Json_out.int s.count);
    ("sum", Json_out.number s.sum);
    ("min", Json_out.number s.min);
    ("max", Json_out.number s.max);
    ("mean", Json_out.number s.mean);
    ("p50", Json_out.number s.p50);
    ("p90", Json_out.number s.p90);
    ("p99", Json_out.number s.p99);
  ]

let to_json ?(provenance = []) () =
  let entries = snapshot () in
  let pick f = List.filter_map f entries in
  Json_out.obj
    ((if provenance = [] then []
      else
        [
          ( "provenance",
            Json_out.obj
              (List.map (fun (k, v) -> (k, Json_out.string v)) provenance) );
        ])
    @ [
        ( "counters",
          Json_out.obj
            (pick (function
              | E_counter (n, v) -> Some (n, Json_out.int v)
              | _ -> None)) );
        ( "gauges",
          Json_out.obj
            (pick (function
              | E_gauge (n, v) -> Some (n, Json_out.number v)
              | _ -> None)) );
        ( "histograms",
          Json_out.obj
            (pick (function
              | E_histogram (n, s) -> Some (n, Json_out.obj (stats_fields s))
              | _ -> None)) );
      ])

let to_csv () =
  let b = Buffer.create 256 in
  Buffer.add_string b "metric,kind,count,value,min,max,mean,p50,p90,p99\n";
  List.iter
    (fun e ->
      match e with
      | E_counter (n, v) ->
        Buffer.add_string b (Printf.sprintf "%s,counter,,%d,,,,,,\n" n v)
      | E_gauge (n, v) ->
        Buffer.add_string b (Printf.sprintf "%s,gauge,,%g,,,,,,\n" n v)
      | E_histogram (n, s) ->
        Buffer.add_string b
          (Printf.sprintf "%s,histogram,%d,,%g,%g,%g,%g,%g,%g\n" n s.count
             s.min s.max s.mean s.p50 s.p90 s.p99))
    (snapshot ());
  Buffer.contents b

(* -- Prometheus text exposition (version 0.0.4) -- *)

let prometheus_name n =
  let b = Buffer.create (String.length n + 1) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
      | '0' .. '9' ->
        if i = 0 then Buffer.add_char b '_';
        Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    n;
  Buffer.contents b

let prom_number f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else Json_out.number f

let to_prometheus () =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter
    (fun e ->
      match e with
      | E_counter (n, v) ->
        let pn = prometheus_name n ^ "_total" in
        line "# HELP %s hypart counter %s\n" pn n;
        line "# TYPE %s counter\n" pn;
        line "%s %d\n" pn v
      | E_gauge (n, v) ->
        let pn = prometheus_name n in
        line "# HELP %s hypart gauge %s\n" pn n;
        line "# TYPE %s gauge\n" pn;
        line "%s %s\n" pn (prom_number v)
      | E_histogram (n, s) ->
        let pn = prometheus_name n in
        line "# HELP %s hypart histogram %s\n" pn n;
        line "# TYPE %s summary\n" pn;
        line "%s{quantile=\"0.5\"} %s\n" pn (prom_number s.p50);
        line "%s{quantile=\"0.9\"} %s\n" pn (prom_number s.p90);
        line "%s{quantile=\"0.99\"} %s\n" pn (prom_number s.p99);
        line "%s_sum %s\n" pn (prom_number s.sum);
        line "%s_count %d\n" pn s.count)
    (snapshot ());
  Buffer.contents b

let write ?provenance path =
  if Filename.check_suffix path ".csv" then Json_out.write_file path (to_csv ())
  else if Filename.check_suffix path ".prom" then
    Json_out.write_file path (to_prometheus ())
  else Json_out.write_file path (to_json ?provenance ())
