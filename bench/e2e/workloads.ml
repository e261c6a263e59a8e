(* The benchmark's workloads.  Each is a fixed list of operations derived
   from the workload seed and issued by two closed-loop callers (each
   waits for its reply before sending the next), which is how `hypart
   submit`, evolve fleets and ECO flows use the daemon.  Caller [c]
   performs its share of the list in order; a run stops issuing when its
   time is up and every caller has finished the ops that [cut_mean]
   averages, so that mean repeats exactly for a seed.

   The served workloads drive a real `hypart serve --workers 2`
   subprocess over loopback through [Hypart_server.Client.http_request],
   one connection per request and no retries; [table4_ibm18] calls the
   library in-process.  Layer timings come from outside: the daemon's
   /jobs, /metrics and trace, in-process counters and spans, and probes
   that time each layer's public functions on the workload's own
   inputs. *)

module H = Hypart_hypergraph.Hypergraph
module Io = Hypart_hypergraph.Netlist_io
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Rng = Hypart_rng.Rng
module Engine = Hypart_engine.Engine
module Parallel = Hypart_engine.Parallel
module Ml = Hypart_multilevel.Ml_partitioner
module Ml_engines = Hypart_multilevel.Ml_engines
module Delta = Hypart_delta.Delta
module Delta_gen = Hypart_delta.Delta_gen
module Patch = Hypart_delta.Patch
module Eco = Hypart_delta.Eco
module Fingerprint = Hypart_lab.Fingerprint
module Client = Hypart_server.Client
module Http = Hypart_server.Http
module Instance_cache = Hypart_server.Instance_cache
module Telemetry = Hypart_telemetry.Telemetry
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace
module Clock = Hypart_telemetry.Clock
module Json_in = Hypart_telemetry.Json_in
module Json_out = Hypart_telemetry.Json_out

type ctx = {
  exe : string;  (** the hypart CLI *)
  dir : string;  (** output directory: bodies, daemon logs, traces *)
  seed : int;
  seconds : float;  (** timed phase length *)
  tiny : bool;  (** smoke-test sizes *)
}

(* callers (client threads, or domains offline) and daemon workers *)
let callers = 2
let tolerance = 0.02

type op = {
  index : int;  (** position in the workload's op list *)
  caller : int;
  start_s : float;
  latency_s : float;
  cut : int;
  legal : bool;
  rid : float;  (** request id, as the daemon stamps it on spans *)
  job : int;  (** daemon job id; -1 offline *)
  warm : bool;  (** ECO answered by warm start, not scratch fallback *)
  sides : Bytes.t;  (** kept only where a post-run check needs it *)
  mutable error : string option;
}

let blank ~index ~start =
  {
    index;
    caller = 0;
    start_s = start;
    latency_s = 0.;
    cut = 0;
    legal = false;
    rid = float_of_int index;
    job = -1;
    warm = false;
    sides = Bytes.empty;
    error = None;
  }

let fail op msg = { op with error = Some msg }
let check op = function None -> op | Some msg -> fail op msg

let op_seed ctx tag i = Fingerprint.mix_seed ~base:ctx.seed [ tag; string_of_int i ]

type phase = {
  ops : op list;  (** completed, by index *)
  rate : float;  (** ops per second, summed over callers *)
  wall_s : float;
}

(* Run every caller until the time is up and it has done [min_ops];
   [step] yields [None] when the list is exhausted.  Each caller's rate
   is its ops over its own elapsed time, so a caller finishing its last
   op late does not count the other caller's idle wait. *)
let closed_loop ~fanout ~seconds ~min_ops step =
  let t0 = Clock.now_s () in
  let caller c =
    let rec go k acc =
      let elapsed = Clock.now_s () -. t0 in
      if elapsed >= seconds && k >= min_ops then (acc, elapsed)
      else
        match step ~caller:c ~k with
        | None -> (acc, elapsed)
        | Some op -> go (k + 1) ({ op with caller = c } :: acc)
    in
    go 0 []
  in
  let per_caller = fanout caller in
  let rate =
    Stats.sum
      (List.map
         (fun (ops, el) -> if el > 0. then float_of_int (List.length ops) /. el else 0.)
         per_caller)
  in
  {
    ops = List.sort (fun a b -> compare a.index b.index) (List.concat_map fst per_caller);
    rate;
    wall_s = List.fold_left (fun m (_, el) -> Float.max m el) 0. per_caller;
  }

let on_threads f =
  let results = Array.make callers None in
  let threads =
    List.init callers (fun c -> Thread.create (fun () -> results.(c) <- Some (f c)) ())
  in
  List.iter Thread.join threads;
  Array.to_list
    (Array.map (function Some r -> r | None -> failwith "a client thread died") results)

let on_domains f = Parallel.map_seeds ~domains:callers ~seeds:(List.init callers Fun.id) f

let on_callers f = ignore (on_threads f)

(* ------------------------------------------------------------------ *)
(* Served requests                                                     *)

let write_body ctx name h =
  let file = Filename.concat ctx.dir (name ^ ".hgr") in
  Io.write_hgr file h;
  (file, In_channel.with_open_bin file In_channel.input_all)

let hdr r name = Http.resp_header r name
let hdr_int r name = Option.bind (hdr r name) int_of_string_opt

(* One POST with a freshly minted request id.  [Ok] carries a 200 whose
   X-Hypart-Cut, -Job and -Legal headers are present. *)
let post d ~index ~path ~body =
  let rid = Client.mint_request_id () in
  let start = Clock.now_s () in
  let r, latency =
    Daemon.request d ~path ~headers:[ ("X-Hypart-Request-Id", rid) ] ~body ()
  in
  let op =
    { (blank ~index ~start) with latency_s = latency; rid = float_of_string rid }
  in
  match r with
  | Error e -> Error (fail op ("transport: " ^ e))
  | Ok r when r.Http.status <> 200 ->
    Error (fail op (Printf.sprintf "status %d: %s" r.Http.status r.Http.resp_body))
  | Ok r -> (
    match (hdr_int r "x-hypart-cut", hdr_int r "x-hypart-job", hdr r "x-hypart-legal") with
    | Some cut, Some job, Some legal -> Ok ({ op with cut; job; legal = legal = "true" }, r)
    | _ -> Error (fail op "response lacks X-Hypart-Cut/-Job/-Legal"))

(* a failed setup request aborts the run: there is no benchmark without it *)
let setup_ok = function
  | Ok (op, r) -> (op, r)
  | Error op -> failwith ("setup request failed: " ^ Option.value ~default:"" op.error)

let check_instance r ~fingerprint =
  match hdr r "x-hypart-instance" with
  | Some fp when fp = fingerprint -> ()
  | fp ->
    failwith
      (Printf.sprintf "daemon fingerprinted the body as %s, the bench as %s"
         (Option.value ~default:"nothing" fp) fingerprint)

(* the request bytes Client.http_request puts on the wire *)
let request_bytes ~path ~body =
  Printf.sprintf
    "POST %s HTTP/1.1\r\nHost: 127.0.0.1:1\r\nX-Hypart-Request-Id: 1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    path (String.length body) body

let partition_path ~engine ~seed =
  Printf.sprintf "/partition?engine=%s&starts=1&seed=%d&format=hgr&out=plain" engine seed

(* Every daemon starts with one tiny engine run of its own: two
   concurrent first runs race on the daemon's lazily computed provenance
   stamp, and one of the two connections is dropped without a response
   (README, known gaps). *)
let start_daemon ctx ~name args =
  let d = Daemon.start ~exe:ctx.exe ~dir:ctx.dir ~name ("--workers" :: "2" :: args) in
  let _, body = write_body ctx "prime" (Suite.instance ~scale:256. "ibm01") in
  ignore (setup_ok (post d ~index:(-1) ~path:(partition_path ~engine:"flat" ~seed:1) ~body));
  d

(* ------------------------------------------------------------------ *)
(* Layer probes: each layer's public function, timed on this workload's
   inputs after the timed phase.  Values are medians in ms.            *)

let probe_reps = 5

let probe_ms f =
  Stats.median
    (List.init probe_reps (fun _ ->
         let t0 = Clock.now_s () in
         ignore (Sys.opaque_identity (f ()));
         (Clock.now_s () -. t0) *. 1000.))

let decode_ms bytes =
  probe_ms (fun () ->
      let p = Http.create_parser () in
      let n = String.length bytes in
      let rec feed off =
        let len = min 8192 (n - off) in
        match Http.feed p (String.sub bytes off len) with
        | `More when off + len < n -> feed (off + len)
        | r -> r
      in
      feed 0)

(* probes shared by every workload that ships .hgr bodies *)
let body_probes ~first_request bodies =
  let nb = List.length bodies in
  let over f = Stats.median (List.map f bodies) in
  let parse_ms = over (fun (file, _, _) -> probe_ms (fun () -> Io.read_hgr file)) in
  let mb =
    Stats.mean (List.map (fun (_, body, _) -> float_of_int (String.length body)) bodies)
    /. 1048576.
  in
  [
    ("server.http_decode_ms", decode_ms first_request, probe_reps);
    ( "server.instance_cache_key_ms",
      over (fun (_, body, _) -> probe_ms (fun () -> Instance_cache.key ~format:"hgr" ~body)),
      nb * probe_reps );
    ("lab.fingerprint_ms", over (fun (_, _, h) -> probe_ms (fun () -> Fingerprint.of_instance h)), nb * probe_reps);
    ("hypergraph.parse_ms", parse_ms, nb * probe_reps);
    ("hypergraph.parse_mb_s", (if parse_ms > 0. then mb /. (parse_ms /. 1000.) else 0.), nb * probe_reps);
  ]

(* ------------------------------------------------------------------ *)
(* Workload specs                                                      *)

type 'env spec = {
  setup : ctx -> daemon_args:string list -> 'env;
      (** inputs, daemon spawn to healthy, cache pre-fill, warm-up *)
  daemon : 'env -> Daemon.t option;
  step : 'env -> caller:int -> k:int -> op option;
  quality_ops : int;  (** [cut_mean] averages op indices below this *)
  verify : 'env -> op list -> unit;  (** post-run checks; marks ops failed *)
  probes : 'env -> op list -> (string * float * int) list;
}

(* --- serve_warm: one resident instance, engine-bound requests --- *)

type warm_env = { w_h : H.t; w_file : string; w_body : string; w_daemon : Daemon.t }

let warm_seed ctx i = op_seed ctx "serve_warm" i

(* The suite's own ibm01 twin (its generator seed derives from the name):
   the workload seed varies the request seeds, as the paper varies
   starts on fixed benchmarks.  Twins drawn under other generator seeds
   differ in runtime by a quarter, which would swamp the run-to-run
   spread. *)
let ibm01 ctx = Suite.instance ~scale:(if ctx.tiny then 16. else 1.) "ibm01"

let serve_warm ctx =
  let setup ctx ~daemon_args =
    let h = ibm01 ctx in
    let file, body = write_body ctx "serve_warm" h in
    let fingerprint = Fingerprint.of_instance h in
    let d = start_daemon ctx ~name:"serve_warm" daemon_args in
    (* untimed warm-up, one request per caller under seeds of its own:
       the instance becomes resident and lazily built state is paid for *)
    on_callers (fun c ->
        let seed = op_seed ctx "serve_warm.warmup" c in
        let _, r = setup_ok (post d ~index:(-1) ~path:(partition_path ~engine:"mlclip" ~seed) ~body) in
        check_instance r ~fingerprint);
    { w_h = h; w_file = file; w_body = body; w_daemon = d }
  in
  let step env ~caller ~k =
    let index = caller + (callers * k) in
    let path = partition_path ~engine:"mlclip" ~seed:(warm_seed ctx index) in
    Some
      (match post env.w_daemon ~index ~path ~body:env.w_body with
      | Error op -> op
      | Ok (op, r) ->
        let sides = Checker.sides_of_plain r.Http.resp_body in
        check
          { op with sides = (if index < 2 then sides else Bytes.empty) }
          (Checker.check_assignment env.w_h ~tolerance ~cut:op.cut ~legal:op.legal sides))
  in
  (* served results must be bit-identical to the offline sequential run *)
  let verify env ops =
    let problem = Problem.make ~tolerance env.w_h in
    List.iter
      (fun op ->
        if op.index < 2 && op.error = None then begin
          let r = Engine.run Ml_engines.mlclip (Rng.create (warm_seed ctx op.index)) problem None in
          let offline = Checker.sides_of_array (Bipartition.assignment r.Engine.Result.solution) in
          if r.Engine.Result.cut <> op.cut || not (Bytes.equal offline op.sides) then
            op.error <- Some "served result differs from offline Engine.run"
        end)
      ops
  in
  let probes env _ =
    body_probes
      ~first_request:(request_bytes ~path:(partition_path ~engine:"mlclip" ~seed:1) ~body:env.w_body)
      [ (env.w_file, env.w_body, env.w_h) ]
  in
  {
    setup;
    daemon = (fun e -> Some e.w_daemon);
    step;
    quality_ops = (if ctx.tiny then 4 else 32);
    verify;
    probes;
  }

(* --- serve_cold / serve_dedup: large bodies answered from the lab cache --- *)

type pool_env = {
  bodies : (string * string * H.t) array;  (** file, body, instance *)
  first : (int * bool) array;  (** the pre-fill answer per body: cut, legal *)
  p_daemon : Daemon.t;
}

(* The pool is the same for every workload seed: the cached answers'
   cuts are then the same too, where seed-drawn bodies would make
   [cut_mean] swing with single multilevel runs on a handful of bodies.
   The pre-fill uses the daemon's default engine, as a resubmitted
   default job would.

   [cache_bodies]: size the instance cache to hold that many bodies and
   no more, so a body's next send is a guaranteed miss once its caller
   has sent [cache_bodies] others in between. *)
let pool ~tag ~size ~cache_bodies =
  let per_caller = size / callers in
  let seed b = Fingerprint.mix_seed ~base:1 [ tag; string_of_int b ] in
  let path b = partition_path ~engine:"mlclip" ~seed:(seed b) in
  let setup ctx ~daemon_args =
    let scale = if ctx.tiny then 64. else 3. in
    let bodies =
      Array.init size (fun b ->
          let h = Suite.instance ~scale ~seed:(seed b) "ibm18" in
          let file, body = write_body ctx (Printf.sprintf "%s_%d" tag b) h in
          (file, body, h))
    in
    let cache_args =
      match cache_bodies with
      | None -> []
      | Some k ->
        let biggest = Array.fold_left (fun m (_, _, h) -> max m (H.memory_bytes h)) 0 bodies in
        let mb = (float_of_int k +. 0.5) *. float_of_int biggest /. 1048576. in
        [ "--instance-cache-mb"; string_of_int (int_of_float (Float.ceil mb)) ]
    in
    let d = start_daemon ctx ~name:tag (cache_args @ daemon_args) in
    (* pre-fill: one engine run per body fills the lab cache *)
    let first = Array.make size (0, false) in
    let prefill b =
      let _, body, h = bodies.(b) in
      let op, r = setup_ok (post d ~index:(-1) ~path:(path b) ~body) in
      check_instance r ~fingerprint:(Fingerprint.of_instance h);
      (match
         Checker.check_assignment h ~tolerance ~cut:op.cut ~legal:op.legal
           (Checker.sides_of_plain r.Http.resp_body)
       with
      | Some msg -> failwith ("pre-fill answer: " ^ msg)
      | None -> ());
      first.(b) <- (op.cut, op.legal)
    in
    on_callers (fun c ->
        for j = 0 to per_caller - 1 do
          prefill ((c * per_caller) + j)
        done);
    (* smoke-test bodies are far below the 1 MiB granularity of
       --instance-cache-mb, so there the bound holds many of them *)
    (match cache_bodies with
    | Some k when not ctx.tiny ->
      let resident = int_of_float (Daemon.healthz_num d "instances_resident") in
      if resident <> k then
        failwith (Printf.sprintf "instance cache holds %d bodies, expected %d" resident k)
    | _ -> ());
    { bodies; first; p_daemon = d }
  in
  let step env ~caller ~k =
    let index = caller + (callers * k) in
    let b = (caller * per_caller) + (k mod per_caller) in
    let _, body, _ = env.bodies.(b) in
    Some
      (match post env.p_daemon ~index ~path:(path b) ~body with
      | Error op -> op
      | Ok (op, r) ->
        (* a lab-cache answer carries the cut and legality but no
           assignment: it must repeat the pre-fill answer, which set-up
           re-scored from the CSR *)
        let cut, legal = env.first.(b) in
        if hdr r "x-hypart-cached" <> Some "true" then fail op "not answered from the lab cache"
        else if op.cut <> cut || op.legal <> legal then
          fail op (Printf.sprintf "cached cut %d differs from the first answer %d" op.cut cut)
        else op)
  in
  let probes env _ =
    let _, body, _ = env.bodies.(0) in
    body_probes ~first_request:(request_bytes ~path:(path 0) ~body) (Array.to_list env.bodies)
  in
  {
    setup;
    daemon = (fun e -> Some e.p_daemon);
    step;
    quality_ops = size;
    verify = (fun _ _ -> ());
    probes;
  }

(* every send is cold: the caller cycles two bodies and the cache holds one *)
let serve_cold = pool ~tag:"serve_cold" ~size:(2 * callers) ~cache_bodies:(Some 1)

(* every send is hot: each caller resends one resident body *)
let serve_dedup = pool ~tag:"serve_dedup" ~size:callers ~cache_bodies:None

(* --- eco_chain: stacked 1% deltas through POST /delta --- *)

type link = { delta : Delta.t; fp : string; pins_touched : int }

type eco_env = {
  e_h : H.t;
  e_file : string;
  e_body : string;
  e_fp : string;
  prior0 : int array;  (** the base partition every chain starts from *)
  chains : link array array;
  priors : int array array;  (** per caller: the prior of its next delta *)
  e_daemon : Daemon.t;
}

let chain_len = 8

(* chain [j]: [chain_len] deltas, each drawn against and applied to the
   previous patched instance, with the fingerprints the daemon must
   report *)
let make_chains ctx ~tag ~n h0 fp0 =
  Array.init n (fun j ->
      let rng = Rng.create (op_seed ctx tag j) in
      let h = ref h0 and fp = ref fp0 in
      Array.init chain_len (fun _ ->
          let delta = Delta_gen.perturb ~base_fingerprint:!fp ~rng ~fraction:0.01 !h in
          let p = Patch.apply ~base:!h ~base_fingerprint:!fp delta in
          h := p.Patch.hypergraph;
          fp := p.Patch.fingerprint;
          { delta; fp = !fp; pins_touched = p.Patch.stats.Patch.pins_touched }))

let delta_path ~seed = Printf.sprintf "/delta?engine=eco_fm&scratch=mlclip&seed=%d&out=plain" seed
let delta_body link prior = Delta.to_string (Delta.with_prior link.delta (Some prior))

let eco_chain ctx =
  (* about 1.4x what two callers finish in 15 s; a faster daemon that
     exhausts the list just ends its run early *)
  let n_chains = if ctx.tiny then 4 else 112 in
  let setup ctx ~daemon_args =
    let h = ibm01 ctx in
    let file, body = write_body ctx "eco_chain" h in
    let fp = Fingerprint.of_instance h in
    let chains = make_chains ctx ~tag:"eco_chain" ~n:n_chains h fp in
    let warm = make_chains ctx ~tag:"eco_chain.warmup" ~n:callers h fp in
    (* patched instances stay resident for the next delta; 64 MiB holds
       about a hundred of them *)
    let d = start_daemon ctx ~name:"eco_chain" ("--instance-cache-mb" :: "64" :: daemon_args) in
    let op, r =
      setup_ok (post d ~index:(-1) ~path:(partition_path ~engine:"mlclip" ~seed:ctx.seed) ~body)
    in
    check_instance r ~fingerprint:fp;
    let sides = Checker.sides_of_plain r.Http.resp_body in
    (match Checker.check_assignment h ~tolerance ~cut:op.cut ~legal:op.legal sides with
    | Some msg -> failwith ("base partition: " ^ msg)
    | None -> ());
    let prior0 = Checker.array_of_sides sides in
    (* warm-up: one untimed chain per caller *)
    on_callers (fun c ->
        ignore
          (Array.fold_left
             (fun prior link ->
               let _, r =
                 setup_ok
                   (post d ~index:(-1) ~path:(delta_path ~seed:ctx.seed) ~body:(delta_body link prior))
               in
               Checker.array_of_sides (Checker.sides_of_plain r.Http.resp_body))
             prior0 warm.(c)));
    {
      e_h = h;
      e_file = file;
      e_body = body;
      e_fp = fp;
      prior0;
      chains;
      priors = Array.make callers prior0;
      e_daemon = d;
    }
  in
  let step env ~caller ~k =
    let j = caller + (callers * (k / chain_len)) and s = k mod chain_len in
    if j >= Array.length env.chains then None
    else begin
      let index = (j * chain_len) + s in
      let link = env.chains.(j).(s) in
      let prior = if s = 0 then env.prior0 else env.priors.(caller) in
      let path = delta_path ~seed:(op_seed ctx "eco_chain.run" index) in
      Some
        (match post env.e_daemon ~index ~path ~body:(delta_body link prior) with
        | Error op -> op
        | Ok (op, r) ->
          let sides = Checker.sides_of_plain r.Http.resp_body in
          env.priors.(caller) <- Checker.array_of_sides sides;
          let op = { op with sides; warm = hdr r "x-hypart-mode" = Some "warm" } in
          if hdr r "x-hypart-delta-fingerprint" <> Some link.fp then
            fail op "patched-instance fingerprint differs from the local patch chain"
          else op)
    end
  in
  (* re-derive every patched instance locally and re-score each answer *)
  let verify env ops =
    let by_chain = Hashtbl.create 64 in
    List.iter (fun op -> Hashtbl.replace by_chain (op.index / chain_len, op.index mod chain_len) op) ops;
    Array.iteri
      (fun j links ->
        ignore
          (Array.fold_left
             (fun (h, fp, s) link ->
               match Hashtbl.find_opt by_chain (j, s) with
               | None -> (h, fp, s + 1)
               | Some op ->
                 let p = Patch.apply ~base:h ~base_fingerprint:fp link.delta in
                 if op.error = None then
                   op.error <-
                     Checker.check_assignment p.Patch.hypergraph ~tolerance ~cut:op.cut
                       ~legal:op.legal op.sides;
                 (p.Patch.hypergraph, p.Patch.fingerprint, s + 1))
             (env.e_h, env.e_fp, 0) links))
      env.chains
  in
  (* the delta layer, probed on chain 0 with the priors the run used, up
     to its first failed step *)
  let probes env ops =
    let rec answered s = function
      | op :: rest when s < chain_len && op.index = s && op.error = None ->
        op :: answered (s + 1) rest
      | _ -> []
    in
    let chain0 = answered 0 ops in
    let rows =
      List.rev
        (snd
           (List.fold_left
              (fun ((h, fp, prior), acc) op ->
                let link = env.chains.(0).(op.index) in
                let body = delta_body link prior in
                let p = Patch.apply ~base:h ~base_fingerprint:fp link.delta in
                let projected = Eco.project p ~prior in
                let fixed = Eco.localize p ~radius:Eco.default_config.Eco.radius ~assignment:projected in
                let free = Array.fold_left (fun n f -> if f < 0 then n + 1 else n) 0 fixed in
                let row =
                  ( probe_ms (fun () -> Delta.of_string body),
                    probe_ms (fun () -> Patch.apply ~base:h ~base_fingerprint:fp link.delta),
                    probe_ms (fun () -> Eco.project p ~prior),
                    probe_ms (fun () ->
                        Eco.localize p ~radius:Eco.default_config.Eco.radius ~assignment:projected),
                    float_of_int free /. float_of_int (max 1 (H.num_vertices p.Patch.hypergraph)) )
                in
                ((p.Patch.hypergraph, p.Patch.fingerprint, Checker.array_of_sides op.sides), row :: acc))
              ((env.e_h, env.e_fp, env.prior0), [])
              chain0))
    in
    let col f = Stats.median (List.map f rows) and n = List.length rows in
    let nops = List.length ops in
    let first_request =
      request_bytes ~path:(delta_path ~seed:1) ~body:(delta_body env.chains.(0).(0) env.prior0)
    in
    body_probes ~first_request [ (env.e_file, env.e_body, env.e_h) ]
    @ [
        ("delta.decode_ms", col (fun (a, _, _, _, _) -> a), n);
        ("delta.patch_ms", col (fun (_, b, _, _, _) -> b), n);
        ("delta.eco_project_ms", col (fun (_, _, c, _, _) -> c), n);
        ("delta.eco_localize_ms", col (fun (_, _, _, d, _) -> d), n);
        ("delta.eco_free_fraction_mean", Stats.mean (List.map (fun (_, _, _, _, f) -> f) rows), n);
        ( "delta.pins_touched_per_op",
          Stats.mean
            (List.map
               (fun op -> float_of_int env.chains.(op.index / chain_len).(op.index mod chain_len).pins_touched)
               ops),
          nops );
        ( "delta.eco_warm_ratio",
          float_of_int (List.length (List.filter (fun op -> op.warm) ops)) /. float_of_int (max 1 nops),
          nops );
      ]
  in
  {
    setup;
    daemon = (fun e -> Some e.e_daemon);
    step;
    quality_ops = (if ctx.tiny then 16 else 64);
    verify;
    probes;
  }

(* --- table4_ibm18: the Table 4 configuration-1 protocol, offline --- *)

type t4_env = { t_h : H.t; problem : Problem.t }

let table4_ibm18 ctx =
  (* the Table 4 instance itself (its seed derives from its name); the
     workload seed varies the repetitions *)
  let setup ctx ~daemon_args:_ =
    let h = if ctx.tiny then Suite.instance ~scale:32. "ibm01" else Suite.instance ~scale:4. "ibm18" in
    { t_h = h; problem = Problem.make ~tolerance h }
  in
  (* one repetition exactly as Experiments.table_multistart_eval runs it:
     one multilevel CLIP start, V-cycle the best *)
  let step env ~caller ~k =
    let index = caller + (callers * k) in
    let start = Clock.now_s () in
    let best =
      Trace.with_context [ ("request_id", float_of_int index) ] (fun () ->
          let rng = Rng.create (op_seed ctx "table4" index) in
          fst
            (Engine.multistart
               ~polish_best:(Ml_engines.vcycle_polish ~config:Ml.ml_clip rng env.problem)
               Ml_engines.mlclip rng env.problem ~starts:1))
    in
    let op =
      {
        (blank ~index ~start) with
        latency_s = Clock.now_s () -. start;
        cut = best.Engine.Result.cut;
        legal = best.Engine.Result.legal;
      }
    in
    Some
      (check op
         (Checker.check_assignment env.t_h ~tolerance ~cut:op.cut ~legal:op.legal
            (Checker.sides_of_array (Bipartition.assignment best.Engine.Result.solution))))
  in
  {
    setup;
    daemon = (fun _ -> None);
    step;
    quality_ops = (if ctx.tiny then 2 else 8);
    verify = (fun _ _ -> ());
    probes = (fun _ _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* Running a spec                                                      *)

type result = {
  attempted : int;
  failed : int;
  errors : string list;  (** the first few failure reasons *)
  metrics : (string * float * int) list;  (** name, value, sample count *)
}

let safe_step spec env ~caller ~k =
  try spec.step env ~caller ~k
  with e ->
    let index = caller + (callers * k) in
    Some (fail (blank ~index ~start:(Clock.now_s ())) ("bench: " ^ Printexc.to_string e))

let run_phase spec env ~seconds =
  let fanout = match spec.daemon env with Some _ -> on_threads | None -> on_domains in
  let min_ops = (spec.quality_ops + callers - 1) / callers in
  closed_loop ~fanout ~seconds ~min_ops (safe_step spec env)

(* stop the daemon; a drain that does not exit 0 breaks its contract *)
let teardown spec env =
  match spec.daemon env with
  | Some d when not (Daemon.stop d) -> [ "daemon did not drain and exit 0; see " ^ d.Daemon.log ]
  | _ -> []

let outcome phases extra_errors metrics =
  let ops = List.concat_map (fun p -> p.ops) phases in
  let errors = List.filter_map (fun op -> op.error) ops in
  {
    attempted = List.length ops;
    failed = List.length errors;
    errors = extra_errors @ List.filteri (fun i _ -> i < 5) errors;
    metrics;
  }

let ms s = s *. 1000.

(* one line per operation of a timed phase, for looking behind the
   percentiles *)
let write_ops ctx ~name p =
  Out_channel.with_open_bin (Filename.concat ctx.dir (name ^ ".ops.csv")) (fun oc ->
      output_string oc "index,caller,start_s,latency_ms,cut,legal,error\n";
      List.iter
        (fun op ->
          Printf.fprintf oc "%d,%d,%.6f,%.3f,%d,%b,%s\n" op.index op.caller op.start_s
            (ms op.latency_s) op.cut op.legal
            (Option.value ~default:"" (Option.map String.escaped op.error)))
        p.ops)

let untraced ~name spec ctx =
  let reps = if ctx.tiny then 1 else 3 in
  (* set up [reps] times and keep the last: every earlier one is torn
     down at once, so a single daemon runs at a time *)
  let rec setups i times errors =
    (* each set-up starts from a compacted heap, not the previous one's
       garbage *)
    Gc.compact ();
    let t0 = Clock.now_s () in
    let env = spec.setup ctx ~daemon_args:[] in
    let times = (Clock.now_s () -. t0) :: times in
    if i + 1 = reps then (env, times, errors)
    else setups (i + 1) times (errors @ teardown spec env)
  in
  let env, setup_times, setup_errors = setups 0 [] [] in
  (* the peak is the timed phase's: pre-fill and warm-up peaks depend on
     when the collector happened to run during set-up *)
  let pid = match spec.daemon env with Some d -> d.Daemon.pid | None -> Unix.getpid () in
  Daemon.reset_peak_rss pid;
  let p = run_phase spec env ~seconds:ctx.seconds in
  spec.verify env p.ops;
  let rss = Daemon.peak_rss_mb pid in
  let down = teardown spec env in
  write_ops ctx ~name p;
  let lat = List.map (fun op -> ms op.latency_s) p.ops in
  let quality = List.filter (fun op -> op.index < spec.quality_ops) p.ops in
  let n = List.length p.ops in
  outcome [ p ] (setup_errors @ down)
    [
      ("setup_s", Stats.median setup_times, reps);
      ("throughput_ops_s", p.rate, n);
      ("latency_p50_ms", Stats.percentile lat 50., n);
      ("cut_mean", Stats.mean (List.map (fun op -> float_of_int op.cut) quality), List.length quality);
      ("peak_rss_mb", rss, 1);
    ]

let ml_phases = [ "ml.coarsen"; "ml.initial"; "ml.refine"; "ml.vcycle" ]

(* per-op engine attribution from the spans of the timed ops *)
let engine_layers ~ops ~spans =
  let ids = Hashtbl.create 256 in
  List.iter (fun op -> Hashtbl.replace ids op.rid ()) ops;
  let spans = Trace_analysis.for_requests ids spans in
  let keep name = name = "ml.run" || List.mem name ml_phases in
  let rows = Trace_analysis.self_times ~keep spans in
  let self name = Trace_analysis.self_us rows name /. 1000. in
  let engine_ms = List.fold_left (fun acc r -> acc +. r.Trace_analysis.self_us) 0. rows /. 1000. in
  let phases_ms = Stats.sum (List.map self ml_phases) in
  let levels =
    Stats.sum
      (List.filter_map
         (fun s ->
           if s.Trace_analysis.name = "ml.coarsen" then List.assoc_opt "levels" s.Trace_analysis.args
           else None)
         spans)
  in
  let n = List.length ops in
  let per_op x = x /. float_of_int (max 1 n) in
  let share x = if engine_ms > 0. then x /. engine_ms else 0. in
  [
    ("multilevel.coarsen_ms_per_op", per_op (self "ml.coarsen"), n);
    ("multilevel.initial_ms_per_op", per_op (self "ml.initial"), n);
    ("multilevel.refine_ms_per_op", per_op (self "ml.refine"), n);
    ("multilevel.vcycle_ms_per_op", per_op (self "ml.vcycle"), n);
    ("multilevel.coarsen_share", share (self "ml.coarsen"), n);
    ("multilevel.span_coverage", share phases_ms, n);
    ("multilevel.levels_per_op", per_op levels, n);
  ]

let fm_layers ~ops ~counter =
  let n = List.length ops in
  let per_op name = counter name /. float_of_int (max 1 n) in
  [
    ("fm.passes_per_op", per_op "fm.passes", n);
    ("fm.moves_per_op", per_op "fm.moves", n);
    ("fm.gain_repositions_per_op", per_op "gain.repositions", n);
    ("fm.corking_events_per_op", per_op "fm.corking_events", n);
    ("fm.workspace_creates_per_op", per_op "fm.workspace_creates", n);
  ]

(* /jobs/<id>: (exec, queue) seconds; a dedup answer has no exec *)
let job_times d job =
  let j = Daemon.json_get d (Printf.sprintf "/jobs/%d" job) in
  let num key = match Json_in.member key j with Some (Json_in.Num f) -> f | _ -> 0. in
  (num "exec_seconds", num "queue_seconds")

let chrome_json spans =
  Json_out.obj
    [
      ( "traceEvents",
        Json_out.arr
          (List.map
             (fun (s : Trace_analysis.span) ->
               Json_out.obj
                 [
                   ("name", Json_out.string s.Trace_analysis.name);
                   ("ph", Json_out.string "X");
                   ("ts", Json_out.number s.Trace_analysis.ts_us);
                   ("dur", Json_out.number s.Trace_analysis.dur_us);
                   ("pid", Json_out.int 2);
                   ("tid", Json_out.int s.Trace_analysis.tid);
                   ( "args",
                     Json_out.obj
                       (List.map (fun (k, v) -> (k, Json_out.number v)) s.Trace_analysis.args) );
                 ])
             spans) );
    ]

(* the daemon-side layers, read from /jobs, /metrics and /healthz while
   the daemon still runs *)
let served_layers ~name ~ctx ~p ~d ~before ~after =
  let ops = p.ops in
  let n = List.length ops in
  let nf = float_of_int (max 1 n) in
  let counter k =
    Option.value ~default:0. (List.assoc_opt k after) -. Option.value ~default:0. (List.assoc_opt k before)
  in
  let times = List.map (fun op -> job_times d op.job) ops in
  let exec = List.map (fun (e, _) -> ms e) times and queue = List.map (fun (_, q) -> ms q) times in
  let latency = List.map (fun op -> ms op.latency_s) ops in
  let overhead = List.map2 (fun l e -> l -. e) latency exec in
  let p50 xs = Stats.percentile xs 50. in
  let cache_bytes = Daemon.healthz_num d "instance_cache_bytes" in
  (* the bench's own client.request spans, for side-by-side viewing *)
  let client_spans =
    List.map
      (fun op ->
        {
          Trace_analysis.name = "client.request";
          tid = op.caller;
          ts_us = op.start_s *. 1e6;
          dur_us = op.latency_s *. 1e6;
          args = [ ("request_id", op.rid) ];
        })
      ops
  in
  Out_channel.with_open_bin
    (Filename.concat ctx.dir (name ^ ".client-trace.json"))
    (fun oc -> output_string oc (chrome_json client_spans));
  let hits = counter "server.instance_cache_hits" and misses = counter "server.instance_cache_misses" in
  [
      ("server.exec_ms_p50", p50 exec, n);
      ("server.queue_ms_p50", p50 queue, n);
      ("server.overhead_ms_p50", p50 overhead, n);
      ( "server.unattributed_ratio",
        (if p50 latency > 0. then
           Float.abs (p50 exec +. p50 overhead -. p50 latency) /. p50 latency
         else 0.),
        n );
      ( "server.instance_cache_hit_ratio",
        (if hits +. misses > 0. then hits /. (hits +. misses) else 0.),
        int_of_float (hits +. misses) );
      ("server.instance_cache_bytes_end", cache_bytes, 1);
      ("server.jobs_executed_per_op", (counter "server.jobs_executed" +. counter "delta.executed") /. nf, n);
      ("server.rejected_full", counter "server.rejected_full", n);
      ("lab.cache_hit_ratio", (counter "server.cache_served" +. counter "delta.cache_served") /. nf, n);
      ("engine.parallel_efficiency", Stats.sum exec /. 1000. /. (float_of_int callers *. p.wall_s), n);
    ]
  @ fm_layers ~ops ~counter

let traced ~name spec ctx =
  let half = ctx.seconds /. 2. in
  (* A: the untraced baseline for the tracing overhead *)
  let env_a = spec.setup ctx ~daemon_args:[] in
  let a = run_phase spec env_a ~seconds:half in
  spec.verify env_a a.ops;
  let down_a = teardown spec env_a in
  (* B: traced *)
  let trace_file = Filename.concat ctx.dir (name ^ ".trace.json") in
  let events_file = Filename.concat ctx.dir (name ^ ".events.jsonl") in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ trace_file; events_file ];
  let env_b =
    spec.setup ctx
      ~daemon_args:[ "--trace"; trace_file; "--events"; events_file; "--retention"; "1000000" ]
  in
  let b, layers, down_b =
    match spec.daemon env_b with
    | Some d ->
      let before = Daemon.counters d in
      let b = run_phase spec env_b ~seconds:half in
      let after = Daemon.counters d in
      let server = served_layers ~name ~ctx ~p:b ~d ~before ~after in
      spec.verify env_b b.ops;
      (* the daemon writes its trace as it exits *)
      let down = teardown spec env_b in
      let spans =
        Trace_analysis.of_chrome_json (In_channel.with_open_bin trace_file In_channel.input_all)
      in
      (b, server @ engine_layers ~ops:b.ops ~spans, down)
    | None ->
      (* counters and spans start from zero *)
      Telemetry.reset ();
      Telemetry.enable ();
      let b = run_phase spec env_b ~seconds:half in
      Telemetry.disable ();
      let counter k = float_of_int (Metrics.counter_value k) in
      let spans = Trace_analysis.of_trace_events (Trace.events ()) in
      spec.verify env_b b.ops;
      let busy = Stats.sum (List.map (fun op -> op.latency_s) b.ops) in
      ( b,
        ("engine.parallel_efficiency", busy /. (float_of_int callers *. b.wall_s), List.length b.ops)
        :: fm_layers ~ops:b.ops ~counter
        @ engine_layers ~ops:b.ops ~spans,
        [] )
  in
  let probes = spec.probes env_b b.ops in
  outcome [ a; b ] (down_a @ down_b)
    ((("trace.overhead_ratio", (if a.rate > 0. then (b.rate /. a.rate) -. 1. else 0.), List.length b.ops)
     :: layers)
    @ probes)

(* ------------------------------------------------------------------ *)

let run ~name ~traced:tr ctx =
  let go spec = if tr then traced ~name spec ctx else untraced ~name spec ctx in
  match name with
  | "serve_warm" -> go (serve_warm ctx)
  | "serve_cold" -> go serve_cold
  | "serve_dedup" -> go serve_dedup
  | "eco_chain" -> go (eco_chain ctx)
  | "table4_ibm18" -> go (table4_ibm18 ctx)
  | other -> invalid_arg ("unknown workload " ^ other)
