(* The lib/server daemon: HTTP codec robustness (partial reads, body
   limits, malformed requests), bounded-queue semantics, client backoff
   determinism, and live end-to-end behaviour — served results equal
   offline runs, duplicate submissions hit the cache with zero engine
   runs, a full queue answers 503 with Retry-After instead of hanging,
   deadlines are answered 504, and SIGTERM-style shutdown drains
   cleanly. *)

module Http = Hypart_server.Http
module Job_queue = Hypart_server.Job_queue
module Job_table = Hypart_server.Job_table
module Server = Hypart_server.Server
module Client = Hypart_server.Client
module Engine = Hypart_engine.Engine
module Rng = Hypart_rng.Rng
module Io = Hypart_hypergraph.Netlist_io
module Instance_store = Hypart_hypergraph.Instance_store
module Instance_cache = Hypart_server.Instance_cache
module Fingerprint = Hypart_lab.Fingerprint
module Hg = Hypart_hypergraph.Hypergraph
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Initial = Hypart_partition.Initial
module Fleet = Hypart_server.Fleet
module Executor = Hypart_evolve.Executor
module Evolve = Hypart_evolve.Evolve

(* ---------------- http codec ---------------- *)

let simple_request =
  "POST /partition?engine=flat&seed=7 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"

let feed_all parser chunks =
  let rec go = function
    | [] -> `More
    | [ last ] -> Http.feed parser last
    | c :: rest -> (
      match Http.feed parser c with `More -> go rest | terminal -> terminal)
  in
  go chunks

let check_simple = function
  | `Request r ->
    Alcotest.(check string) "meth" "POST" r.Http.meth;
    Alcotest.(check string) "path" "/partition" r.Http.path;
    Alcotest.(check (option string)) "engine" (Some "flat")
      (Http.query_param r "engine");
    Alcotest.(check (option string)) "seed" (Some "7")
      (Http.query_param r "seed");
    Alcotest.(check (option string)) "host" (Some "x") (Http.header r "Host");
    Alcotest.(check string) "body" "hello" r.Http.body
  | `More -> Alcotest.fail "request incomplete"
  | `Error _ -> Alcotest.fail "request rejected"

let test_http_whole () =
  check_simple (Http.feed (Http.create_parser ()) simple_request)

(* the parser must not care where [Unix.read] split the bytes: feeding
   one byte at a time parses identically to one whole-buffer feed *)
let test_http_byte_at_a_time () =
  let chunks =
    List.init (String.length simple_request) (fun i ->
        String.make 1 simple_request.[i])
  in
  check_simple (feed_all (Http.create_parser ()) chunks)

let test_http_split_everywhere () =
  for cut = 1 to String.length simple_request - 1 do
    let a = String.sub simple_request 0 cut in
    let b =
      String.sub simple_request cut (String.length simple_request - cut)
    in
    check_simple (feed_all (Http.create_parser ()) [ a; b ])
  done

let test_http_oversized_body () =
  let parser = Http.create_parser ~max_body:10 () in
  (* rejected the moment Content-Length is parsed — no body bytes fed *)
  match
    Http.feed parser "POST /x HTTP/1.1\r\nContent-Length: 11\r\n\r\n"
  with
  | `Error (Http.Body_too_large limit) ->
    Alcotest.(check int) "limit reported" 10 limit
  | `Error (Http.Bad_request msg) -> Alcotest.fail ("wrong error: " ^ msg)
  | `More -> Alcotest.fail "oversized body not rejected"
  | `Request _ -> Alcotest.fail "oversized body accepted"

let test_http_at_limit_body () =
  match
    Http.feed
      (Http.create_parser ~max_body:5 ())
      "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
  with
  | `Request r -> Alcotest.(check string) "body" "hello" r.Http.body
  | _ -> Alcotest.fail "body exactly at the limit must be accepted"

let test_http_malformed () =
  let expect_bad raw =
    match Http.feed (Http.create_parser ()) raw with
    | `Error (Http.Bad_request _) -> ()
    | `More -> Alcotest.fail (Printf.sprintf "%S: incomplete, not rejected" raw)
    | `Request _ -> Alcotest.fail (Printf.sprintf "%S: accepted" raw)
    | `Error (Http.Body_too_large _) ->
      Alcotest.fail (Printf.sprintf "%S: wrong error" raw)
  in
  expect_bad "not an http request line\r\n\r\n";
  expect_bad "GET\r\n\r\n";
  expect_bad "GET /x HTTP/1.1\r\nno colon here\r\n\r\n";
  expect_bad "GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
  expect_bad "GET /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n";
  expect_bad "GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"

(* [Expect: 100-continue] asks for the interim line only while the head
   is parsed and the body still missing *)
let test_http_expect_continue () =
  let head expect =
    Printf.sprintf "POST /partition HTTP/1.1\r\nHost: x\r\n%sContent-Length: 5\r\n\r\n"
      expect
  in
  let more p chunk =
    match Http.feed p chunk with
    | `More -> ()
    | _ -> Alcotest.fail "request finished early"
  in
  let p = Http.create_parser () in
  Alcotest.(check bool) "no head yet" false (Http.expects_continue p);
  more p "POST /partition HTTP/1.1\r\nExpect: 100-continue\r\n";
  Alcotest.(check bool) "head incomplete" false (Http.expects_continue p);
  more p "Content-Length: 5\r\n\r\n";
  Alcotest.(check bool) "head parsed, body missing" true (Http.expects_continue p);
  more p "hel";
  Alcotest.(check bool) "body partial" true (Http.expects_continue p);
  (match Http.feed p "lo" with
   | `Request r -> Alcotest.(check string) "body" "hello" r.Http.body
   | _ -> Alcotest.fail "request not finished");
  Alcotest.(check bool) "finished" false (Http.expects_continue p);
  let p = Http.create_parser () in
  more p (head "Expect: 100-Continue\r\n");
  Alcotest.(check bool) "value is case-insensitive" true (Http.expects_continue p);
  let p = Http.create_parser () in
  more p (head "");
  Alcotest.(check bool) "no Expect header" false (Http.expects_continue p);
  let p = Http.create_parser () in
  (match Http.feed p (head "Expect: 100-continue\r\n" ^ "hello") with
   | `Request _ -> ()
   | _ -> Alcotest.fail "whole request not parsed");
  Alcotest.(check bool) "body arrived with the head" false
    (Http.expects_continue p)

let test_http_response_round_trip () =
  let rendered =
    Http.render_response
      ~headers:[ ("Retry-After", "1") ]
      ~status:503 ~body:"busy" ()
  in
  match Http.parse_response rendered with
  | Error msg -> Alcotest.fail msg
  | Ok resp ->
    Alcotest.(check int) "status" 503 resp.Http.status;
    Alcotest.(check (option string)) "retry-after" (Some "1")
      (Http.resp_header resp "Retry-After");
    Alcotest.(check string) "body" "busy" resp.Http.resp_body

(* ---------------- job queue ---------------- *)

let test_queue_bounds () =
  let q = Job_queue.create ~capacity:2 () in
  Alcotest.(check bool) "push 1" true (Job_queue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Job_queue.try_push q 2);
  Alcotest.(check bool) "push 3 rejected" false (Job_queue.try_push q 3);
  Alcotest.(check int) "length" 2 (Job_queue.length q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Job_queue.pop q);
  Alcotest.(check bool) "room again" true (Job_queue.try_push q 4)

let test_queue_close_drains () =
  let q = Job_queue.create ~capacity:4 () in
  ignore (Job_queue.try_push q 1);
  ignore (Job_queue.try_push q 2);
  Job_queue.close q;
  Alcotest.(check bool) "closed rejects" false (Job_queue.try_push q 3);
  Alcotest.(check (option int)) "drains 1" (Some 1) (Job_queue.pop q);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Job_queue.pop q);
  Alcotest.(check (option int)) "then None" None (Job_queue.pop q)

let test_queue_blocking_pop () =
  let q = Job_queue.create ~capacity:1 () in
  let d = Domain.spawn (fun () -> Job_queue.pop q) in
  Unix.sleepf 0.02;
  ignore (Job_queue.try_push q 42);
  Alcotest.(check (option int)) "woken with the item" (Some 42) (Domain.join d)

(* ---------------- client backoff ---------------- *)

let test_backoff_schedule () =
  let d a j = Client.backoff_delay ~base:0.25 ~cap:8.0 ~attempt:a ~retry_after:None j in
  (* jitter 0 gives the guaranteed half of the window *)
  Alcotest.(check (float 1e-9)) "attempt 0 floor" 0.125 (d 0 0.);
  Alcotest.(check (float 1e-9)) "attempt 1 floor" 0.25 (d 1 0.);
  (* jitter 1 gives the full window, capped *)
  Alcotest.(check (float 1e-9)) "attempt 2 full" 1.0 (d 2 1.);
  Alcotest.(check (float 1e-9)) "cap reached" 8.0 (d 20 1.);
  (* the server's Retry-After is a floor *)
  Alcotest.(check (float 1e-9)) "retry-after floor" 3.0
    (Client.backoff_delay ~attempt:0 ~retry_after:(Some 3.0) 0.);
  (* monotone in the attempt for fixed jitter *)
  let prev = ref 0. in
  for a = 0 to 10 do
    let v = d a 0.5 in
    Alcotest.(check bool) "monotone" true (v >= !prev);
    prev := v
  done

let test_with_retries_stops_on_success () =
  let calls = ref 0 in
  let slept = ref [] in
  let outcome =
    Client.with_retries ~attempts:5
      ~sleep:(fun s -> slept := s :: !slept)
      (fun () ->
        incr calls;
        if !calls < 3 then
          Ok
            {
              Http.status = 503;
              resp_headers = [ ("retry-after", "0.01") ];
              resp_body = "";
            }
        else Ok { Http.status = 200; resp_headers = []; resp_body = "done" })
  in
  Alcotest.(check int) "two 503s then success" 3 !calls;
  Alcotest.(check int) "slept between attempts" 2 (List.length !slept);
  match outcome with
  | Ok r -> Alcotest.(check int) "final status" 200 r.Http.status
  | Error msg -> Alcotest.fail msg

let test_with_retries_exhausts () =
  let calls = ref 0 in
  let outcome =
    Client.with_retries ~attempts:3 ~sleep:(fun _ -> ()) (fun () ->
        incr calls;
        Error "connection refused")
  in
  Alcotest.(check int) "all attempts used" 3 !calls;
  match outcome with
  | Error msg -> Alcotest.(check string) "last error" "connection refused" msg
  | Ok _ -> Alcotest.fail "cannot succeed"

(* non-retriable statuses fail fast: a malformed request (400) or an
   oversized body (413) will not get better by resending it *)
let test_with_retries_fail_fast () =
  List.iter
    (fun status ->
      let calls = ref 0 in
      let outcome =
        Client.with_retries ~attempts:5
          ~sleep:(fun _ -> Alcotest.fail "must not sleep before a terminal status")
          (fun () ->
            incr calls;
            Ok { Http.status; resp_headers = []; resp_body = "no" })
      in
      Alcotest.(check int)
        (Printf.sprintf "single attempt for %d" status)
        1 !calls;
      match outcome with
      | Ok r -> Alcotest.(check int) "status surfaced" status r.Http.status
      | Error msg -> Alcotest.fail msg)
    [ 400; 404; 413 ]

let test_with_retries_retries_504 () =
  let calls = ref 0 in
  let outcome =
    Client.with_retries ~attempts:4 ~sleep:(fun _ -> ()) (fun () ->
        incr calls;
        if !calls < 2 then
          Ok { Http.status = 504; resp_headers = []; resp_body = "" }
        else Ok { Http.status = 200; resp_headers = []; resp_body = "ok" })
  in
  Alcotest.(check int) "504 then success" 2 !calls;
  match outcome with
  | Ok r -> Alcotest.(check int) "final status" 200 r.Http.status
  | Error msg -> Alcotest.fail msg

let test_retryable_status_classification () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%d retriable" s)
        true (Client.retryable_status s))
    [ 502; 503; 504 ];
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%d terminal" s)
        false (Client.retryable_status s))
    [ 200; 400; 404; 413; 500 ]

(* a 502 from a proxy in front of a restarting daemon deserves the same
   backoff-and-retry treatment as 503/504 *)
let test_with_retries_retries_502 () =
  let calls = ref 0 in
  let outcome =
    Client.with_retries ~attempts:4 ~sleep:(fun _ -> ()) (fun () ->
        incr calls;
        if !calls < 2 then
          Ok { Http.status = 502; resp_headers = []; resp_body = "" }
        else Ok { Http.status = 200; resp_headers = []; resp_body = "ok" })
  in
  Alcotest.(check int) "502 then success" 2 !calls;
  match outcome with
  | Ok r -> Alcotest.(check int) "final status" 200 r.Http.status
  | Error msg -> Alcotest.fail msg

(* ---------------- live server ---------------- *)

(* a 4-vertex instance small enough that every engine is instant *)
let tiny_hgr = "2 4\n1 2\n3 4\n"

let parse_tiny () =
  let tmp = Filename.temp_file "hypart_test" ".hgr" in
  let oc = open_out tmp in
  output_string oc tiny_hgr;
  close_out oc;
  let h = Io.read_hgr tmp in
  Sys.remove tmp;
  h

(* test-only engines, registered once: [test-count] counts invocations
   (for the zero-engine-runs dedup assertion), [test-gate] blocks until
   released (to hold a worker busy deterministically), [test-poll]
   spins on the cancellation hook (to exercise mid-run deadlines) *)
let count_runs = Atomic.make 0
let gate_open = Atomic.make false
let gate_entered = Atomic.make 0

let trivial_result problem rng =
  let solution = Initial.random rng problem in
  {
    Engine.Result.solution;
    cut = Bipartition.cut problem.Problem.hypergraph solution;
    legal = Bipartition.is_legal solution problem.Problem.balance;
    stats = [];
  }

let () =
  Engine.register
    (Engine.make ~name:"test-count" ~description:"counts runs"
       (fun rng problem _ ->
         Atomic.incr count_runs;
         trivial_result problem rng));
  Engine.register
    (Engine.make ~name:"test-gate" ~description:"blocks until released"
       (fun rng problem _ ->
         Atomic.incr gate_entered;
         while not (Atomic.get gate_open) do
           Unix.sleepf 0.002
         done;
         trivial_result problem rng));
  Engine.register
    (Engine.make ~name:"test-poll" ~description:"spins on the cancel hook"
       (fun rng problem _ ->
         let deadline = Unix.gettimeofday () +. 5.0 in
         while Unix.gettimeofday () < deadline do
           Hypart_engine.Cancel.check ();
           Unix.sleepf 0.002
         done;
         trivial_result problem rng))

let with_server ?(workers = 2) ?(queue_capacity = 8) f =
  let server =
    Server.create
      {
        Server.default_config with
        Server.port = 0;
        workers;
        queue_capacity;
        retention = 64;
      }
  in
  let port = Server.port server in
  let d = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Domain.join d)
    (fun () -> f server port)

let submit ?(query = "") ?(body = tiny_hgr) port =
  match
    Client.http_request ~host:"127.0.0.1" ~port ~meth:"POST"
      ~path:("/partition?out=json" ^ query) ~body ()
  with
  | Ok resp -> resp
  | Error msg -> Alcotest.fail ("transport: " ^ msg)

let get port path =
  match Client.http_request ~host:"127.0.0.1" ~port ~meth:"GET" ~path () with
  | Ok resp -> resp
  | Error msg -> Alcotest.fail ("transport: " ^ msg)

let hdr resp name =
  match Http.resp_header resp name with
  | Some v -> v
  | None -> Alcotest.fail ("missing header " ^ name)

let test_serve_matches_offline () =
  with_server (fun _server port ->
      let resp = submit ~query:"&engine=flat&seed=9" port in
      Alcotest.(check int) "status" 200 resp.Http.status;
      Alcotest.(check string) "fresh" "false" (hdr resp "x-hypart-cached");
      (* the daemon's determinism contract: same engine, same seed,
         same bytes as the offline single-start path *)
      let tmp = Filename.temp_file "hypart_test" ".hgr" in
      let oc = open_out tmp in
      output_string oc tiny_hgr;
      close_out oc;
      let h = Io.read_hgr tmp in
      Sys.remove tmp;
      let problem = Problem.make ~tolerance:0.02 h in
      let offline =
        Engine.run (Engine.find_exn "flat") (Rng.create 9) problem None
      in
      Alcotest.(check string) "served cut = offline cut"
        (string_of_int offline.Engine.Result.cut)
        (hdr resp "x-hypart-cut"))

let test_serve_dedup_zero_runs () =
  with_server (fun _server port ->
      Atomic.set count_runs 0;
      let first = submit ~query:"&engine=test-count&seed=4" port in
      Alcotest.(check int) "first status" 200 first.Http.status;
      Alcotest.(check string) "first fresh" "false"
        (hdr first "x-hypart-cached");
      Alcotest.(check int) "one engine run" 1 (Atomic.get count_runs);
      let again = submit ~query:"&engine=test-count&seed=4" port in
      Alcotest.(check int) "dup status" 200 again.Http.status;
      Alcotest.(check string) "dup cached" "true" (hdr again "x-hypart-cached");
      Alcotest.(check string) "same cut" (hdr first "x-hypart-cut")
        (hdr again "x-hypart-cut");
      (* the acceptance criterion: the duplicate ran no engine *)
      Alcotest.(check int) "still one engine run" 1 (Atomic.get count_runs);
      (* a different seed is a different key *)
      let other = submit ~query:"&engine=test-count&seed=5" port in
      Alcotest.(check string) "other fresh" "false"
        (hdr other "x-hypart-cached");
      Alcotest.(check int) "second engine run" 2 (Atomic.get count_runs))

(* ---------------- parsed-instance cache ---------------- *)

(* instance-cache keys as earlier daemons computed them *)
let test_icache_key_golden () =
  Alcotest.(check string) "tiny hgr" "32860053fb08ccf2"
    (Instance_cache.key ~format:"hgr" ~body:tiny_hgr)

let test_icache_lru () =
  let h = parse_tiny () in
  let key i = Instance_cache.key ~format:"hgr" ~body:(string_of_int i) in
  (* entry footprint as the cache computes it, so a two-entry bound is
     exact *)
  let per = Hg.memory_bytes h + 2 + String.length (key 0) + 128 in
  let c = Instance_cache.create ~max_bytes:(2 * per) () in
  Instance_cache.add c (key 1) h ~fingerprint:"fp";
  Instance_cache.add c (key 2) h ~fingerprint:"fp";
  Alcotest.(check int) "two resident" 2 (Instance_cache.resident c);
  (* touch 1 so 2 becomes the LRU victim *)
  (match Instance_cache.find c (key 1) with
  | Some (h', fp) ->
    Alcotest.(check string) "fingerprint" "fp" fp;
    Alcotest.(check bool) "shared, not copied" true (h' == h)
  | None -> Alcotest.fail "key 1 missing");
  Instance_cache.add c (key 3) h ~fingerprint:"fp";
  Alcotest.(check int) "still two resident" 2 (Instance_cache.resident c);
  Alcotest.(check bool) "LRU evicted" true
    (Option.is_none (Instance_cache.find c (key 2)));
  Alcotest.(check bool) "recently used survives" true
    (Option.is_some (Instance_cache.find c (key 1)));
  Alcotest.(check bool) "bytes bounded" true (Instance_cache.bytes c <= 2 * per);
  (* an entry larger than the whole cache is never retained *)
  let tiny = Instance_cache.create ~max_bytes:8 () in
  Instance_cache.add tiny (key 9) h ~fingerprint:"fp";
  Alcotest.(check int) "oversized dropped" 0 (Instance_cache.resident tiny)

let test_serve_instance_cache () =
  with_server (fun _server port ->
      let counter = Hypart_telemetry.Metrics.counter_value in
      let hits0 = counter "server.instance_cache_hits" in
      let misses0 = counter "server.instance_cache_misses" in
      let first = submit ~query:"&engine=flat&seed=21" port in
      Alcotest.(check int) "first status" 200 first.Http.status;
      (* same body, different seed: the dedup key differs (the engine
         runs again) but the body is recognized — no reparse *)
      let second = submit ~query:"&engine=flat&seed=22" port in
      Alcotest.(check int) "second status" 200 second.Http.status;
      Alcotest.(check string) "second is a fresh run" "false"
        (hdr second "x-hypart-cached");
      Alcotest.(check int) "one parse miss" (misses0 + 1)
        (counter "server.instance_cache_misses");
      Alcotest.(check int) "one cache hit" (hits0 + 1)
        (counter "server.instance_cache_hits");
      Alcotest.(check bool) "resident bytes gauge set" true
        (Hypart_telemetry.Metrics.gauge_value "server.instance_cache_bytes"
        > 0.);
      let health = get port "/healthz" in
      let module Mini_json = Hypart_telemetry.Json_in in
      match
        Mini_json.member "instances_resident"
          (Mini_json.parse health.Http.resp_body)
      with
      | Some (Mini_json.Num n) ->
        Alcotest.(check bool) "at least one resident" true (n >= 1.)
      | _ -> Alcotest.fail "no instances_resident in /healthz")

let test_serve_hgrb_format () =
  with_server (fun _server port ->
      let h = parse_tiny () in
      let fp = Fingerprint.of_instance h in
      let tmp = Filename.temp_file "hypart_test" ".hgrb" in
      Instance_store.save tmp ~fingerprint:fp h;
      let ic = open_in_bin tmp in
      let packed = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove tmp;
      let text = submit ~query:"&engine=flat&seed=31" port in
      Alcotest.(check int) "text accepted" 200 text.Http.status;
      let binary =
        submit ~query:"&engine=flat&seed=31&format=hgrb" ~body:packed port
      in
      Alcotest.(check int) "binary accepted" 200 binary.Http.status;
      (* the packed header's fingerprint equals the text instance's, so
         the binary resubmission lands on the same run-store key and is
         answered from the dedup cache: zero engine runs *)
      Alcotest.(check string) "dedup across formats" "true"
        (hdr binary "x-hypart-cached");
      Alcotest.(check string) "same cut" (hdr text "x-hypart-cut")
        (hdr binary "x-hypart-cut");
      (* corrupt binary is a located 400, never a crash *)
      let bad = submit ~query:"&format=hgrb" ~body:"XXXX not packed" port in
      Alcotest.(check int) "corrupt rejected" 400 bad.Http.status)

let test_serve_queue_full_503 () =
  (* one worker, queue of one: A occupies the worker, B waits in the
     queue, so C must be answered 503 Retry-After immediately *)
  with_server ~workers:1 ~queue_capacity:1 (fun _server port ->
      Atomic.set gate_open false;
      Atomic.set gate_entered 0;
      (* a failure below must still release the gated worker, or the
         server's drain waits on it forever *)
      Fun.protect
        ~finally:(fun () -> Atomic.set gate_open true)
        (fun () ->
          let a =
            Domain.spawn (fun () ->
                submit ~query:"&engine=test-gate&seed=1" port)
          in
          (* the worker is provably inside the gated engine... *)
          while Atomic.get gate_entered < 1 do
            Unix.sleepf 0.002
          done;
          (* ...and B is provably in the queue (depth gauge is set by the
             accept loop after a successful push) *)
          let b = Domain.spawn (fun () -> get port "/healthz") in
          while
            Hypart_telemetry.Metrics.gauge_value "server.queue_depth" < 1.
          do
            Unix.sleepf 0.002
          done;
          let c = get port "/healthz" in
          Alcotest.(check int) "C rejected" 503 c.Http.status;
          Alcotest.(check string) "Retry-After present" "1"
            (hdr c "retry-after");
          Atomic.set gate_open true;
          let a = Domain.join a and b = Domain.join b in
          Alcotest.(check int) "A completed" 200 a.Http.status;
          Alcotest.(check int) "B completed" 200 b.Http.status))

let test_serve_deadline_504 () =
  with_server ~workers:1 (fun _server port ->
      (* mid-run expiry: the engine polls the cancel hook *)
      let resp =
        submit ~query:"&engine=test-poll&seed=1&deadline_ms=60" port
      in
      Alcotest.(check int) "expired mid-run" 504 resp.Http.status;
      (* queued expiry: the worker is gated while the deadline passes *)
      Atomic.set gate_open false;
      Atomic.set gate_entered 0;
      let a =
        Domain.spawn (fun () -> submit ~query:"&engine=test-gate&seed=2" port)
      in
      while Atomic.get gate_entered < 1 do
        Unix.sleepf 0.002
      done;
      let b =
        Domain.spawn (fun () ->
            submit ~query:"&engine=flat&seed=3&deadline_ms=40" port)
      in
      Unix.sleepf 0.12;
      Atomic.set gate_open true;
      let a = Domain.join a and b = Domain.join b in
      Alcotest.(check int) "gated job fine" 200 a.Http.status;
      Alcotest.(check int) "queued job expired" 504 b.Http.status)

let test_serve_survives_malformed () =
  with_server (fun _server port ->
      (* raw garbage must be answered 400 and must not take the worker
         down *)
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      let garbage = "this is not http\r\n\r\n" in
      ignore (Unix.write_substring fd garbage 0 (String.length garbage));
      let buf = Bytes.create 4096 in
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      Unix.close fd;
      let raw = Bytes.sub_string buf 0 n in
      (match Http.parse_response raw with
      | Ok resp -> Alcotest.(check int) "garbage is 400" 400 resp.Http.status
      | Error msg -> Alcotest.fail msg);
      (* the same worker pool still serves *)
      let ok = get port "/healthz" in
      Alcotest.(check int) "healthz after garbage" 200 ok.Http.status;
      let oversized = submit ~body:(String.make (80 * 1024 * 1024) 'x') port in
      Alcotest.(check int) "oversized is 413" 413 oversized.Http.status;
      let bad = submit ~query:"&engine=no-such-engine" port in
      Alcotest.(check int) "unknown engine is 400" 400 bad.Http.status;
      let bad = submit ~body:"2 4\nbogus pins\n" ~query:"&engine=flat" port in
      Alcotest.(check int) "bad netlist is 400" 400 bad.Http.status;
      let missing = get port "/jobs/999999" in
      Alcotest.(check int) "unknown job is 404" 404 missing.Http.status;
      let nope = get port "/no-such-endpoint" in
      Alcotest.(check int) "unknown path is 404" 404 nope.Http.status)

(* a client that sends [Expect: 100-continue] holds the body back until
   the interim line arrives (curl waits about a second): the daemon must
   send it right after the head *)
let test_serve_expect_continue () =
  with_server (fun _server port ->
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
          let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
          send
            (Printf.sprintf
               "POST /partition?out=json&engine=flat&seed=9 HTTP/1.1\r\n\
                Host: x\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n"
               (String.length tiny_hgr));
          let interim = "HTTP/1.1 100 Continue\r\n\r\n" in
          let buf = Bytes.create (String.length interim) in
          let rec read_interim off =
            if off < Bytes.length buf then
              match Unix.select [ fd ] [] [] 0.9 with
              | [], _, _ -> Alcotest.fail "no 100 Continue within 0.9 s"
              | _ ->
                let n = Unix.read fd buf off (Bytes.length buf - off) in
                if n = 0 then Alcotest.fail "closed before 100 Continue";
                read_interim (off + n)
          in
          read_interim 0;
          Alcotest.(check string) "interim line" interim (Bytes.to_string buf);
          send tiny_hgr;
          let out = Buffer.create 1024 and chunk = Bytes.create 4096 in
          let rec drain () =
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              Buffer.add_subbytes out chunk 0 n;
              drain ()
            end
          in
          drain ();
          match Http.parse_response (Buffer.contents out) with
          | Error msg -> Alcotest.fail msg
          | Ok resp ->
            Alcotest.(check int) "final status" 200 resp.Http.status;
            let plain = submit ~query:"&engine=flat&seed=9" port in
            Alcotest.(check string) "same cut as without Expect"
              (hdr plain "x-hypart-cut") (hdr resp "x-hypart-cut")))

let test_serve_jobs_and_metrics () =
  with_server (fun _server port ->
      let resp = submit ~query:"&engine=flat&seed=2" port in
      let id = hdr resp "x-hypart-job" in
      let job = get port ("/jobs/" ^ id) in
      Alcotest.(check int) "job found" 200 job.Http.status;
      let has needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        Alcotest.(check bool) (needle ^ " present") true (go 0)
      in
      has "\"status\":\"done\"" job.Http.resp_body;
      has "\"engine\":\"flat\"" job.Http.resp_body;
      let metrics = get port "/metrics" in
      Alcotest.(check int) "metrics ok" 200 metrics.Http.status;
      has "server.requests" metrics.Http.resp_body;
      let health = get port "/healthz" in
      has "\"status\":\"ok\"" health.Http.resp_body)

let body_has ?(expect = true) needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  Alcotest.(check bool)
    (Printf.sprintf "%s %s" needle (if expect then "present" else "absent"))
    expect (go 0)

let test_serve_request_id_propagation () =
  (* the tentpole contract: a client-supplied X-Hypart-Request-Id is
     echoed on the response, stamped into the job ledger, and carried
     as an arg on every engine span the worker domain records *)
  Hypart_telemetry.Trace.reset ();
  Hypart_telemetry.Control.enable ();
  Fun.protect ~finally:Hypart_telemetry.Control.disable (fun () ->
      with_server (fun _server port ->
          let rid = "4242" in
          let resp =
            match
              Client.http_request ~host:"127.0.0.1" ~port ~meth:"POST"
                ~path:"/partition?out=json&engine=flat&seed=11"
                ~headers:[ ("X-Hypart-Request-Id", rid) ]
                ~body:tiny_hgr ()
            with
            | Ok resp -> resp
            | Error msg -> Alcotest.fail ("transport: " ^ msg)
          in
          Alcotest.(check int) "status" 200 resp.Http.status;
          Alcotest.(check string) "request id echoed" rid
            (hdr resp "x-hypart-request-id");
          let job = get port ("/jobs/" ^ hdr resp "x-hypart-job") in
          body_has (Printf.sprintf "\"request_id\":%S" rid)
            job.Http.resp_body;
          (* a minted id appears when the client sends none *)
          let anon = submit ~query:"&engine=flat&seed=12" port in
          let minted = hdr anon "x-hypart-request-id" in
          Alcotest.(check bool) "minted id nonempty" true
            (String.length minted > 0);
          (* engine spans from the worker domain carry the id *)
          let spans = Hypart_telemetry.Trace.events () in
          let tagged name =
            List.exists
              (fun e ->
                e.Hypart_telemetry.Trace.name = name
                && List.assoc_opt "request_id" e.Hypart_telemetry.Trace.args
                   = Some 4242.)
              spans
          in
          Alcotest.(check bool) "fm.run span carries request_id" true
            (tagged "fm.run");
          Alcotest.(check bool) "fm.pass span carries request_id" true
            (tagged "fm.pass");
          (* ...and a job_id arg alongside it *)
          Alcotest.(check bool) "fm.run span carries job_id" true
            (List.exists
               (fun e ->
                 e.Hypart_telemetry.Trace.name = "fm.run"
                 && List.mem_assoc "job_id" e.Hypart_telemetry.Trace.args)
               spans)))

let test_serve_prometheus_negotiation () =
  with_server (fun _server port ->
      let (_ : Http.response) = submit ~query:"&engine=flat&seed=21" port in
      (* default encoding stays JSON *)
      let json = get port "/metrics" in
      Alcotest.(check int) "json ok" 200 json.Http.status;
      body_has "application/json" (hdr json "content-type");
      body_has "server.requests" json.Http.resp_body;
      (* Accept: text/plain negotiates the 0.0.4 text exposition *)
      let prom =
        match
          Client.http_request ~host:"127.0.0.1" ~port ~meth:"GET"
            ~path:"/metrics"
            ~headers:[ ("Accept", "text/plain") ]
            ()
        with
        | Ok resp -> resp
        | Error msg -> Alcotest.fail ("transport: " ^ msg)
      in
      Alcotest.(check int) "prom ok" 200 prom.Http.status;
      Alcotest.(check string) "prom content type"
        "text/plain; version=0.0.4; charset=utf-8" (hdr prom "content-type");
      body_has "# TYPE server_requests_total counter" prom.Http.resp_body;
      body_has "server_requests_total" prom.Http.resp_body;
      body_has "{" ~expect:false (String.sub prom.Http.resp_body 0 1);
      (* every sample line is NAME[{labels}] VALUE with a float value *)
      String.split_on_char '\n' prom.Http.resp_body
      |> List.iter (fun line ->
             if line <> "" && line.[0] <> '#' then
               match String.rindex_opt line ' ' with
               | None -> Alcotest.failf "unparseable sample: %s" line
               | Some i ->
                 let v =
                   String.sub line (i + 1) (String.length line - i - 1)
                 in
                 if
                   float_of_string_opt v = None
                   && v <> "NaN" && v <> "+Inf" && v <> "-Inf"
                 then Alcotest.failf "bad sample value %S in: %s" v line))

let test_serve_job_durations () =
  with_server (fun _server port ->
      let resp = submit ~query:"&engine=flat&seed=31" port in
      let job = get port ("/jobs/" ^ hdr resp "x-hypart-job") in
      Alcotest.(check int) "job found" 200 job.Http.status;
      body_has "\"queue_seconds\":" job.Http.resp_body;
      body_has "\"exec_seconds\":" job.Http.resp_body;
      (* dedup hits never execute, so exec_seconds must stay absent *)
      let dup = submit ~query:"&engine=flat&seed=31" port in
      Alcotest.(check string) "dup cached" "true" (hdr dup "x-hypart-cached");
      let dup_job = get port ("/jobs/" ^ hdr dup "x-hypart-job") in
      body_has "\"queue_seconds\":" dup_job.Http.resp_body;
      body_has "\"exec_seconds\":" ~expect:false dup_job.Http.resp_body)

let test_serve_event_lifecycle () =
  (* the flight recorder sees the whole request lifecycle, with the
     client's request id on every line *)
  let module Event_log = Hypart_telemetry.Event_log in
  let module Mini_json = Hypart_telemetry.Json_in in
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "hypart_server_events.jsonl"
  in
  (try Sys.remove path with Sys_error _ -> ());
  let log = Event_log.open_log path in
  Event_log.install log;
  Fun.protect
    ~finally:(fun () -> Event_log.close log)
    (fun () ->
      with_server (fun _server port ->
          let rid = "555001" in
          let go () =
            match
              Client.http_request ~host:"127.0.0.1" ~port ~meth:"POST"
                ~path:"/partition?out=json&engine=flat&seed=41"
                ~headers:[ ("X-Hypart-Request-Id", rid) ]
                ~body:tiny_hgr ()
            with
            | Ok resp -> resp
            | Error msg -> Alcotest.fail ("transport: " ^ msg)
          in
          let fresh = go () in
          Alcotest.(check string) "fresh" "false" (hdr fresh "x-hypart-cached");
          let dup = go () in
          Alcotest.(check string) "dup cached" "true"
            (hdr dup "x-hypart-cached")));
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let events =
    List.rev_map
      (fun l ->
        let j = Mini_json.parse l in
        let name =
          match Mini_json.member "event" j with
          | Some (Mini_json.Str s) -> s
          | _ -> Alcotest.failf "event line without name: %s" l
        in
        (name, j))
      !lines
  in
  let of_rid =
    List.filter
      (fun (_, j) ->
        Mini_json.member "request_id" j = Some (Mini_json.Str "555001"))
      events
  in
  let count name =
    List.length (List.filter (fun (n, _) -> n = name) of_rid)
  in
  Alcotest.(check int) "two admissions" 2 (count "request.admitted");
  Alcotest.(check int) "one start" 1 (count "request.started");
  Alcotest.(check int) "one done" 1 (count "request.done");
  Alcotest.(check int) "one dedup hit" 1 (count "request.dedup_hit");
  (* every line is timestamped *)
  List.iter
    (fun (n, j) ->
      match Mini_json.member "ts_us" j with
      | Some (Mini_json.Num _) -> ()
      | _ -> Alcotest.failf "event %s without ts_us" n)
    events

(* ---------------- delta endpoint ---------------- *)

let post_delta ?(query = "") ?headers port body =
  match
    Client.http_request ~host:"127.0.0.1" ~port ~meth:"POST"
      ~path:("/delta?out=json" ^ query) ?headers ~body ()
  with
  | Ok resp -> resp
  | Error msg -> Alcotest.fail ("transport: " ^ msg)

(* tiny_hgr has 4 cells on 2 nets; this prior is legal at tolerance 0.02 *)
let tiny_prior = "prior 4\n0\n0\n1\n1\n"

let test_serve_delta_roundtrip () =
  with_server (fun _server port ->
      (* the base becomes resident via POST /partition, which names its
         fingerprint on the response *)
      let base = submit ~query:"&engine=flat&seed=7" port in
      Alcotest.(check int) "base status" 200 base.Http.status;
      let fp = hdr base "x-hypart-instance" in
      let body =
        Printf.sprintf "HGRD 1\nbase %s\naddnet 1 2 3\n%s" fp tiny_prior
      in
      let resp = post_delta port body in
      Alcotest.(check int) "delta status" 200 resp.Http.status;
      Alcotest.(check string) "fresh" "false" (hdr resp "x-hypart-cached");
      let dfp = hdr resp "x-hypart-delta-fingerprint" in
      Alcotest.(check bool) "chained fp differs from base" true
        (String.length dfp > 0 && dfp <> fp);
      let mode = hdr resp "x-hypart-mode" in
      Alcotest.(check bool) "mode named" true
        (mode = "warm" || mode = "scratch");
      body_has "\"pins_touched\":" resp.Http.resp_body;
      body_has "\"assignment\":" resp.Http.resp_body;
      (* the patched instance is resident under its chained fingerprint,
         so a follow-up delta can stack on it *)
      let stacked =
        post_delta port
          (Printf.sprintf "HGRD 1\nbase %s\nreweight 1 2\n%s" dfp tiny_prior)
      in
      Alcotest.(check int) "stacked delta accepted" 200 stacked.Http.status)

let test_serve_delta_dedup_zero_runs () =
  with_server (fun _server port ->
      let base = submit ~query:"&engine=flat&seed=8" port in
      let fp = hdr base "x-hypart-instance" in
      let body =
        Printf.sprintf "HGRD 1\nbase %s\nreweight 1 3\n%s" fp tiny_prior
      in
      let q = "&engine=test-count&scratch=test-count&seed=5" in
      Atomic.set count_runs 0;
      let first = post_delta ~query:q port body in
      Alcotest.(check int) "first status" 200 first.Http.status;
      Alcotest.(check string) "first fresh" "false"
        (hdr first "x-hypart-cached");
      let runs = Atomic.get count_runs in
      Alcotest.(check bool) "first ran the engine" true (runs >= 1);
      (* the acceptance criterion: a duplicate POST /delta is a cache
         hit with zero engine runs *)
      let again = post_delta ~query:q port body in
      Alcotest.(check int) "dup status" 200 again.Http.status;
      Alcotest.(check string) "dup cached" "true" (hdr again "x-hypart-cached");
      Alcotest.(check string) "same cut" (hdr first "x-hypart-cut")
        (hdr again "x-hypart-cut");
      Alcotest.(check int) "zero engine runs on the duplicate" runs
        (Atomic.get count_runs);
      (* the prior participates in the key: a different warm start is a
         different computation, not a cache hit *)
      let flipped =
        post_delta ~query:q port
          (Printf.sprintf "HGRD 1\nbase %s\nreweight 1 3\nprior 4\n1\n1\n0\n0\n"
             fp)
      in
      Alcotest.(check string) "flipped prior is fresh" "false"
        (hdr flipped "x-hypart-cached"))

let test_serve_delta_rejections () =
  with_server (fun _server port ->
      let base = submit ~query:"&engine=flat&seed=9" port in
      let fp = hdr base "x-hypart-instance" in
      let expect status name body =
        let resp = post_delta port body in
        Alcotest.(check int) name status resp.Http.status
      in
      (* every codec corruption is a located 400, mirrored from the
         offline parser *)
      expect 400 "unknown op"
        (Printf.sprintf "HGRD 1\nbase %s\nfrobnicate 1\n%s" fp tiny_prior);
      expect 400 "truncated prior"
        (Printf.sprintf "HGRD 1\nbase %s\nrmnet 1\nprior 4\n0\n1\n" fp);
      expect 400 "duplicate rmnet"
        (Printf.sprintf "HGRD 1\nbase %s\nrmnet 1\nrmnet 1\n%s" fp tiny_prior);
      expect 400 "reweight of unknown cell"
        (Printf.sprintf "HGRD 1\nbase %s\nreweight 9 3\n%s" fp tiny_prior);
      expect 400 "no base fingerprint"
        (Printf.sprintf "HGRD 1\nreweight 1 2\n%s" tiny_prior);
      expect 400 "no prior"
        (Printf.sprintf "HGRD 1\nbase %s\nreweight 1 2\n" fp);
      expect 400 "prior length mismatch"
        (Printf.sprintf "HGRD 1\nbase %s\nreweight 1 2\nprior 3\n0\n0\n1\n" fp);
      (* a well-formed but non-resident base is 404, not 400 *)
      expect 404 "unknown base"
        (Printf.sprintf
           "HGRD 1\nbase 0123456789abcdef\nreweight 1 2\n%s" tiny_prior);
      (* the X-Hypart-Base header may carry the base instead of a base
         line *)
      let via_header =
        post_delta
          ~headers:[ ("X-Hypart-Base", fp) ]
          port
          (Printf.sprintf "HGRD 1\nreweight 1 2\n%s" tiny_prior)
      in
      Alcotest.(check int) "header base accepted" 200 via_header.Http.status)

(* a delta warm-started from [tiny_prior] that touches a cell, so the
   ECO engine really runs *)
let tiny_delta fp = Printf.sprintf "HGRD 1\nbase %s\nreweight 1 3\n%s" fp tiny_prior

(* /delta shares /partition's deadline contract: a deadline that
   expires while the request waits behind a busy worker is answered
   504 without running the engine *)
let test_serve_delta_deadline_queued () =
  with_server ~workers:1 (fun _server port ->
      let fp = hdr (submit ~query:"&engine=flat&seed=10" port) "x-hypart-instance" in
      Atomic.set gate_open false;
      Atomic.set gate_entered 0;
      Fun.protect
        ~finally:(fun () -> Atomic.set gate_open true)
        (fun () ->
          let a =
            Domain.spawn (fun () ->
                submit ~query:"&engine=test-gate&seed=12" port)
          in
          while Atomic.get gate_entered < 1 do
            Unix.sleepf 0.002
          done;
          Atomic.set count_runs 0;
          let b =
            Domain.spawn (fun () ->
                post_delta
                  ~query:"&engine=test-count&scratch=test-count&deadline_ms=40"
                  port (tiny_delta fp))
          in
          Unix.sleepf 0.12;
          Atomic.set gate_open true;
          let a = Domain.join a and b = Domain.join b in
          Alcotest.(check int) "gated job fine" 200 a.Http.status;
          Alcotest.(check int) "queued delta expired" 504 b.Http.status;
          Alcotest.(check int) "zero engine runs" 0 (Atomic.get count_runs)))

(* ...and a running delta polls the same cancellation hook *)
let test_serve_delta_deadline_mid_run () =
  with_server ~workers:1 (fun _server port ->
      let fp = hdr (submit ~query:"&engine=flat&seed=11" port) "x-hypart-instance" in
      let resp =
        post_delta ~query:"&engine=test-poll&scratch=test-poll&deadline_ms=60"
          port (tiny_delta fp)
      in
      Alcotest.(check int) "expired mid-run" 504 resp.Http.status)

(* both endpoints count fresh runs and dedup hits in the same counters *)
let test_serve_delta_counters () =
  with_server (fun _server port ->
      let counter = Hypart_telemetry.Metrics.counter_value in
      let fp = hdr (submit ~query:"&engine=flat&seed=12" port) "x-hypart-instance" in
      let executed0 = counter "server.jobs_executed" in
      let served0 = counter "server.cache_served" in
      let fresh = post_delta ~query:"&seed=7" port (tiny_delta fp) in
      Alcotest.(check string) "fresh" "false" (hdr fresh "x-hypart-cached");
      let dup = post_delta ~query:"&seed=7" port (tiny_delta fp) in
      Alcotest.(check string) "dup cached" "true" (hdr dup "x-hypart-cached");
      Alcotest.(check int) "one fresh run counted" (executed0 + 1)
        (counter "server.jobs_executed");
      Alcotest.(check int) "one dedup hit counted" (served0 + 1)
        (counter "server.cache_served"))

(* dedup keys address persistent --store directories: these are the
   keys earlier daemons wrote for the same requests, so a change here
   would orphan every existing store *)
let test_serve_golden_keys () =
  with_server (fun _server port ->
      let key resp =
        match Mini_json.member "key" (Mini_json.parse resp.Http.resp_body) with
        | Some (Mini_json.Str k) -> k
        | _ -> Alcotest.fail "answer without a key field"
      in
      let base = submit ~query:"&engine=flat&seed=9" port in
      Alcotest.(check string) "/partition key"
        "flat/2b05e45156ea17ca/e6ae77df4e998d81/9" (key base);
      let delta =
        post_delta port
          (Printf.sprintf "HGRD 1\nbase %s\naddnet 1 2 3\n%s"
             (hdr base "x-hypart-instance") tiny_prior)
      in
      Alcotest.(check string) "/delta key"
        "eco_fm/d7a8ce714d3efc56/9ded6495ad6b9cf4/1" (key delta))

(* a non-numeric client id still tags engine spans with one exact,
   integral trace arg below 2^53 *)
let test_serve_text_request_id () =
  Hypart_telemetry.Trace.reset ();
  Hypart_telemetry.Control.enable ();
  Fun.protect ~finally:Hypart_telemetry.Control.disable (fun () ->
      with_server (fun _server port ->
          let go seed =
            match
              Client.http_request ~host:"127.0.0.1" ~port ~meth:"POST"
                ~path:(Printf.sprintf "/partition?engine=flat&seed=%d" seed)
                ~headers:[ ("X-Hypart-Request-Id", "trace-abc") ]
                ~body:tiny_hgr ()
            with
            | Ok resp ->
              Alcotest.(check string) "echoed" "trace-abc"
                (hdr resp "x-hypart-request-id")
            | Error msg -> Alcotest.fail ("transport: " ^ msg)
          in
          go 13;
          go 14;
          let args =
            List.filter_map
              (fun e ->
                if e.Hypart_telemetry.Trace.name = "fm.run" then
                  List.assoc_opt "request_id" e.Hypart_telemetry.Trace.args
                else None)
              (Hypart_telemetry.Trace.events ())
          in
          Alcotest.(check int) "both runs tagged" 2 (List.length args);
          let a = List.hd args in
          Alcotest.(check bool) "integral, below 2^53" true
            (Float.is_integer a && a >= 0. && a < 9007199254740992.);
          List.iter (Alcotest.(check (float 0.)) "same id, same arg" a) args))

(* ---------------- fleet ---------------- *)

let with_two_servers f =
  with_server (fun server1 port1 ->
      with_server (fun server2 port2 -> f server1 port1 server2 port2))

let jobs_total port =
  let resp = get port "/healthz" in
  match Mini_json.member "jobs_total" (Mini_json.parse resp.Http.resp_body) with
  | Some (Mini_json.Num n) -> int_of_float n
  | _ -> Alcotest.fail "healthz without jobs_total"

let local port = { Fleet.host = "127.0.0.1"; port }

(* a port that refuses connections: bind, read the number, close *)
let dead_port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close sock;
  port

let fleet_jobs seeds =
  List.map (fun seed -> { Fleet.engine = "flat"; seed; starts = 1 }) seeds

let test_fleet_parse_servers () =
  (match Fleet.parse_servers "host1:8080, :9090,7070" with
  | Ok [ a; b; c ] ->
    Alcotest.(check string) "explicit host" "host1:8080" (Fleet.address a);
    Alcotest.(check string) "bare colon port" "127.0.0.1:9090"
      (Fleet.address b);
    Alcotest.(check string) "bare port" "127.0.0.1:7070" (Fleet.address c)
  | Ok _ -> Alcotest.fail "wrong server count"
  | Error msg -> Alcotest.fail msg);
  (match Fleet.parse_servers "host:notaport" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad port must be rejected");
  match Fleet.parse_servers " , " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty spec must be rejected"

let test_fleet_shards_both_servers () =
  with_two_servers (fun _s1 port1 _s2 port2 ->
      let fleet = Fleet.create [ local port1; local port2 ] in
      let results =
        Fleet.submit_batch fleet ~body:tiny_hgr ~format:"hgr"
          (fleet_jobs [ 1; 2; 3; 4; 5; 6 ])
      in
      Alcotest.(check int) "all jobs answered" 6 (List.length results);
      List.iter
        (function
          | Ok o -> Alcotest.(check bool) "has assignment" true
              (o.Fleet.assignment <> None)
          | Error msg -> Alcotest.fail msg)
        results;
      (* round-robin preference: both daemons actually served *)
      Alcotest.(check bool) "daemon 1 served" true (jobs_total port1 > 0);
      Alcotest.(check bool) "daemon 2 served" true (jobs_total port2 > 0);
      (* a fleet answer equals the in-process evaluation of the same job *)
      let problem = Problem.make ~tolerance:0.02 (parse_tiny ()) in
      let reference =
        Executor.run_local problem { Executor.engine = "flat"; seed = 1; starts = 1 }
      in
      match List.hd results with
      | Ok o ->
        Alcotest.(check int) "fleet cut = local cut" reference.Executor.cut
          o.Fleet.cut
      | Error msg -> Alcotest.fail msg)

let test_fleet_failover_on_dead_server () =
  with_server (fun _server port ->
      let fleet = Fleet.create [ local (dead_port ()); local port ] in
      (* preferred server refuses: the job must land on the live one *)
      match
        Fleet.submit ~attempts_per_server:1 ~sleep:(fun _ -> ()) ~preferred:0
          fleet ~body:tiny_hgr ~format:"hgr"
          { Fleet.engine = "flat"; seed = 3; starts = 1 }
      with
      | Ok o ->
        Alcotest.(check string) "served by the live daemon"
          (Printf.sprintf "127.0.0.1:%d" port)
          o.Fleet.served_by
      | Error msg -> Alcotest.fail msg)

let test_fleet_failover_mid_campaign () =
  with_two_servers (fun _s1 port1 server2 port2 ->
      let fleet = Fleet.create [ local port1; local port2 ] in
      let ok_batch seeds =
        List.iter
          (function Ok _ -> () | Error msg -> Alcotest.fail msg)
          (Fleet.submit_batch ~attempts_per_server:1
             ~sleep:(fun _ -> ())
             fleet ~body:tiny_hgr ~format:"hgr" (fleet_jobs seeds))
      in
      ok_batch [ 1; 2; 3; 4 ];
      (* daemon 2 dies mid-campaign; later batches keep completing *)
      Server.shutdown server2;
      ok_batch [ 5; 6; 7; 8 ];
      ok_batch [ 9; 10 ];
      Alcotest.(check bool) "survivor took the load" true
        (jobs_total port1 >= 6))

let test_fleet_terminal_error_no_failover () =
  with_two_servers (fun _s1 port1 _s2 port2 ->
      let fleet = Fleet.create [ local port1; local port2 ] in
      (* an unknown engine is a 400 everywhere: resending it to the
         other daemon would just fail again, so the error is terminal *)
      (match
         Fleet.submit ~attempts_per_server:3 ~sleep:(fun _ -> ()) ~preferred:0
           fleet ~body:tiny_hgr ~format:"hgr"
           { Fleet.engine = "no-such-engine"; seed = 1; starts = 1 }
       with
      | Ok _ -> Alcotest.fail "unknown engine cannot succeed"
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the status: %s" msg)
          true
          (let has needle =
             let nl = String.length needle and ml = String.length msg in
             let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
             go 0
           in
           has "400"));
      Alcotest.(check int) "second daemon never tried" 0 (jobs_total port2))

(* the fleet executor contract end to end: a campaign sharded over two
   daemons reproduces the single-daemon (and in-process) trajectory
   byte for byte *)
let fleet_campaign_executor fleet =
  Executor.of_fun ~name:"test-fleet" (fun problem jobs ->
      let fjobs =
        List.map
          (fun (j : Executor.job) ->
            { Fleet.engine = j.Executor.engine; seed = j.Executor.seed;
              starts = j.Executor.starts })
          jobs
      in
      let results =
        Fleet.submit_batch ~sleep:(fun _ -> ()) fleet ~body:tiny_hgr
          ~format:"hgr" fjobs
      in
      List.map2
        (fun (j : Executor.job) res ->
          Result.map
            (fun (o : Fleet.outcome) ->
              match o.Fleet.assignment with
              | Some assignment ->
                {
                  Executor.cut = o.Fleet.cut;
                  legal = o.Fleet.legal;
                  seconds = o.Fleet.seconds;
                  assignment;
                  source = o.Fleet.served_by;
                }
              | None -> Executor.run_local problem j)
            res)
        jobs results)

let small_campaign =
  {
    Evolve.default with
    Evolve.base_engine = "flat";
    population = 4;
    generations = 2;
    recombinations = 2;
    immigrants = 1;
  }

let test_fleet_campaign_identical_to_single () =
  let problem = Problem.make ~tolerance:0.02 (parse_tiny ()) in
  let run executor =
    Evolve.trajectory (Evolve.run ~executor small_campaign ~seed:19 problem)
  in
  let in_process = run (Executor.in_process ()) in
  with_two_servers (fun _s1 port1 _s2 port2 ->
      let one = run (fleet_campaign_executor (Fleet.create [ local port1 ])) in
      let two =
        run
          (fleet_campaign_executor
             (Fleet.create [ local port1; local port2 ]))
      in
      Alcotest.(check string) "fleet of 1 = in-process" in_process one;
      Alcotest.(check string) "fleet of 2 = fleet of 1" one two)

let test_serve_shutdown_drains () =
  let server =
    Server.create
      { Server.default_config with Server.port = 0; workers = 2 }
  in
  let port = Server.port server in
  let d = Domain.spawn (fun () -> Server.run server) in
  let resp = submit ~query:"&engine=flat&seed=1" port in
  Alcotest.(check int) "served before shutdown" 200 resp.Http.status;
  Server.shutdown server;
  Server.shutdown server;
  (* idempotent *)
  Domain.join d;
  (* run returned: the drain completed; the port no longer accepts *)
  match
    Client.http_request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/healthz" ()
  with
  | Error _ -> ()
  | Ok resp ->
    Alcotest.failf "daemon still serving after drain (got %d)" resp.Http.status

let () =
  Alcotest.run "server"
    [
      ( "http",
        [
          Alcotest.test_case "whole request" `Quick test_http_whole;
          Alcotest.test_case "byte at a time" `Quick test_http_byte_at_a_time;
          Alcotest.test_case "split everywhere" `Quick test_http_split_everywhere;
          Alcotest.test_case "oversized body" `Quick test_http_oversized_body;
          Alcotest.test_case "body at limit" `Quick test_http_at_limit_body;
          Alcotest.test_case "malformed requests" `Quick test_http_malformed;
          Alcotest.test_case "response round trip" `Quick
            test_http_response_round_trip;
          Alcotest.test_case "expect 100-continue" `Quick
            test_http_expect_continue;
        ] );
      ( "queue",
        [
          Alcotest.test_case "bounds" `Quick test_queue_bounds;
          Alcotest.test_case "close drains" `Quick test_queue_close_drains;
          Alcotest.test_case "blocking pop" `Quick test_queue_blocking_pop;
        ] );
      ( "client",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "retries stop on success" `Quick
            test_with_retries_stops_on_success;
          Alcotest.test_case "retries exhaust" `Quick test_with_retries_exhausts;
          Alcotest.test_case "terminal statuses fail fast" `Quick
            test_with_retries_fail_fast;
          Alcotest.test_case "504 retried" `Quick test_with_retries_retries_504;
          Alcotest.test_case "502 retried" `Quick test_with_retries_retries_502;
          Alcotest.test_case "retryable classification" `Quick
            test_retryable_status_classification;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "parse servers" `Quick test_fleet_parse_servers;
          Alcotest.test_case "shards across both daemons" `Quick
            test_fleet_shards_both_servers;
          Alcotest.test_case "failover to live daemon" `Quick
            test_fleet_failover_on_dead_server;
          Alcotest.test_case "failover mid-campaign" `Quick
            test_fleet_failover_mid_campaign;
          Alcotest.test_case "terminal error no failover" `Quick
            test_fleet_terminal_error_no_failover;
          Alcotest.test_case "campaign identical across fleet sizes" `Quick
            test_fleet_campaign_identical_to_single;
        ] );
      ( "live",
        [
          Alcotest.test_case "served = offline" `Quick test_serve_matches_offline;
          Alcotest.test_case "dedup zero runs" `Quick test_serve_dedup_zero_runs;
          Alcotest.test_case "instance cache LRU" `Quick test_icache_lru;
          Alcotest.test_case "instance cache key golden" `Quick
            test_icache_key_golden;
          Alcotest.test_case "instance cache reuse" `Quick
            test_serve_instance_cache;
          Alcotest.test_case "hgrb format" `Quick test_serve_hgrb_format;
          Alcotest.test_case "queue full 503" `Quick test_serve_queue_full_503;
          Alcotest.test_case "deadline 504" `Quick test_serve_deadline_504;
          Alcotest.test_case "survives malformed" `Quick
            test_serve_survives_malformed;
          Alcotest.test_case "expect 100-continue" `Quick
            test_serve_expect_continue;
          Alcotest.test_case "jobs and metrics" `Quick test_serve_jobs_and_metrics;
          Alcotest.test_case "request id propagation" `Quick
            test_serve_request_id_propagation;
          Alcotest.test_case "prometheus negotiation" `Quick
            test_serve_prometheus_negotiation;
          Alcotest.test_case "job durations" `Quick test_serve_job_durations;
          Alcotest.test_case "event lifecycle" `Quick
            test_serve_event_lifecycle;
          Alcotest.test_case "shutdown drains" `Quick test_serve_shutdown_drains;
          Alcotest.test_case "golden dedup keys" `Quick test_serve_golden_keys;
          Alcotest.test_case "text request id" `Quick
            test_serve_text_request_id;
        ] );
      ( "delta",
        [
          Alcotest.test_case "roundtrip and stacking" `Quick
            test_serve_delta_roundtrip;
          Alcotest.test_case "dedup zero runs" `Quick
            test_serve_delta_dedup_zero_runs;
          Alcotest.test_case "rejections" `Quick test_serve_delta_rejections;
          Alcotest.test_case "deadline while queued" `Quick
            test_serve_delta_deadline_queued;
          Alcotest.test_case "deadline mid-run" `Quick
            test_serve_delta_deadline_mid_run;
          Alcotest.test_case "shared counters" `Quick test_serve_delta_counters;
        ] );
    ]
