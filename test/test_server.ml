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
module Json_in = Hypart_telemetry.Json_in
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

(* the body a parsed request carries, copied out of its slice *)
let body_of r = Bytes.sub_string r.Http.body 0 r.Http.body_length

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
    Alcotest.(check string) "body" "hello" (body_of r)
  | `More -> Alcotest.fail "request incomplete"
  | `Error _ -> Alcotest.fail "request rejected"

let test_http_whole () =
  check_simple (Http.feed (Http.create_parser ()) simple_request)

(* [s] cut at 0-5 random offsets (empty chunks included) *)
let random_splits rng s =
  let n = String.length s in
  let cuts =
    List.sort compare (List.init (Rng.int rng 6) (fun _ -> Rng.int rng (n + 1)))
  in
  let rec go start = function
    | [] -> [ String.sub s start (n - start) ]
    | c :: rest -> String.sub s start (c - start) :: go c rest
  in
  go 0 cuts

let random_token rng =
  String.init (1 + Rng.int rng 8) (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))

(* a well-formed request: random method, path, query, headers and a
   body of random bytes framed by Content-Length *)
let random_request ?body rng =
  let meth = if Rng.bool rng then "GET" else "POST" in
  let query =
    List.init (Rng.int rng 4) (fun _ -> random_token rng ^ "=" ^ random_token rng)
  in
  let target =
    "/" ^ random_token rng ^ if query = [] then "" else "?" ^ String.concat "&" query
  in
  let body =
    match body with
    | Some b -> b
    | None -> String.init (Rng.int rng 200) (fun _ -> Char.chr (Rng.int rng 256))
  in
  let headers =
    List.init (Rng.int rng 4) (fun _ -> "X-" ^ random_token rng ^ ": " ^ random_token rng)
    @ [ Printf.sprintf "Content-Length: %d" (String.length body) ]
  in
  let eol = if Rng.bool rng then "\r\n" else "\n" in
  String.concat eol ((meth ^ " " ^ target ^ " HTTP/1.1") :: headers) ^ eol ^ eol ^ body

(* [n] bytes: a random block of at most 256 bytes, repeated, so bodies
   of hundreds of KiB stay cheap to generate *)
let random_body rng n =
  let block = String.init (1 + Rng.int rng 256) (fun _ -> Char.chr (Rng.int rng 256)) in
  String.init n (fun i -> block.[i mod String.length block])

(* Bodies run from 0 B to 300 KiB, across the parser's 64 KiB first
   body buffer and each doubling of it, and half the requests are
   followed by bytes past Content-Length, which must be dropped
   wherever the splits fall. *)
let prop_http_splits =
  QCheck.Test.make ~name:"a request fed in random splits parses as when fed whole"
    ~count:300 ~long_factor:100 QCheck.(int_bound 0x3FFFFFFF) (fun seed ->
      let rng = Rng.create seed in
      let size = if Rng.int rng 4 = 0 then Rng.int rng (300 * 1024 + 1) else Rng.int rng 200 in
      let body = random_body rng size in
      let raw = random_request ~body rng in
      let extra = if Rng.bool rng then "" else random_body rng (1 + Rng.int rng 70_000) in
      match Http.feed (Http.create_parser ()) raw with
      | `Request whole when body_of whole = body -> (
        let view r = Http.(r.meth, r.path, r.query, r.headers, body_of r) in
        match feed_all (Http.create_parser ()) (random_splits rng (raw ^ extra)) with
        | `Request r -> view r = view whole
        | `More | `Error _ -> false)
      | `Request _ -> QCheck.Test.fail_reportf "a %d-byte body changed in parsing" size
      | `More | `Error _ ->
        QCheck.Test.fail_reportf "whole request with a %d-byte body not parsed" size)

(* any bytes, whole or split, end in `More, a request or a Bad_request
   naming what it rejected; nothing else escapes *)
let prop_http_garbage =
  QCheck.Test.make ~name:"garbage yields a request or a located error"
    ~count:300 ~long_factor:100 QCheck.(int_bound 0x3FFFFFFF) (fun seed ->
      let rng = Rng.create seed in
      let raw =
        match Rng.int rng 3 with
        | 0 -> String.init (Rng.int rng 300) (fun _ -> Char.chr (Rng.int rng 256))
        | 1 -> Fuzz.mutate rng (random_request rng)
        | _ -> "POST /partition HTTP/1.1\r\n" ^ Fuzz.mutate rng (random_request rng)
      in
      match feed_all (Http.create_parser ~max_body:100 ()) (random_splits rng raw) with
      | `More | `Request _ | `Error (Http.Body_too_large _) -> true
      | `Error (Http.Bad_request msg) -> msg <> ""
      | exception e -> QCheck.Test.fail_reportf "%s escaped on %S" (Printexc.to_string e) raw)

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

(* words allocated so far on this domain, minor and major *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The body buffer follows the bytes received, not the length the head
   declares: a head promising 60 MB followed by 10 bytes costs the
   parser its 64 KiB first buffer, and a parser that allocated the
   declared length up front fails here. *)
let test_http_body_bound () =
  let p = Http.create_parser () in
  let w0 = allocated_words () in
  let more chunk =
    match Http.feed p chunk with
    | `More -> ()
    | _ -> Alcotest.fail "a 60 MB body is incomplete after 10 bytes"
  in
  more "POST /partition HTTP/1.1\r\nContent-Length: 60000000\r\n\r\n";
  more "0123456789";
  let bytes = (allocated_words () -. w0) *. float_of_int (Sys.word_size / 8) in
  if bytes >= 1048576. then
    Alcotest.failf "the parser allocated %.0f bytes for 10 body bytes" bytes;
  (* over the limit: 413 from the head alone, though body bytes came
     with it, and nothing buffered *)
  let p = Http.create_parser ~max_body:1_000_000 () in
  let w0 = allocated_words () in
  (match
     Http.feed p
       "POST /partition HTTP/1.1\r\nContent-Length: 60000000\r\n\r\n0123456789"
   with
   | `Error (Http.Body_too_large limit) ->
     Alcotest.(check int) "limit reported" 1_000_000 limit
   | _ -> Alcotest.fail "over-limit Content-Length not refused");
  let bytes = (allocated_words () -. w0) *. float_of_int (Sys.word_size / 8) in
  if bytes >= 65536. then
    Alcotest.failf "a refused body allocated %.0f bytes" bytes;
  Alcotest.(check bool) "no interim line" false (Http.expects_continue p)

(* major words this domain has allocated, with its pending direct
   major-heap allocations folded into the count first *)
let folded_major_words () =
  ignore (Gc.major_slice 0);
  (Gc.quick_stat ()).Gc.major_words

(* [f] on a domain of its own, whose body buffer nothing has borrowed *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let post_request body =
  Printf.sprintf "POST /partition HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
    (String.length body) body

(* feed [raw] to [p] in [size]-byte chunks from [off]; the request once
   it completes *)
let feed_from p raw off size =
  let n = min size (String.length raw - off) in
  match Http.feed p (String.sub raw off n) with
  | `Request r -> Some r
  | `More -> None
  | `Error _ -> Alcotest.fail "request refused"

(* Two live parsers on one domain never share body bytes: the first
   borrows the domain's buffer, the second reads into its own, and fed
   in alternating 4 KiB chunks both bodies come out whole.  After the
   first is released, a third parser takes the domain's buffer and
   overwrites it while the second's body stays intact. *)
let test_http_interleaved_parsers () =
  on_fresh_domain (fun () ->
      let rng = Rng.create 5 in
      let body_a = random_body rng 200_000 and body_b = random_body rng 150_000 in
      let raw_a = post_request body_a and raw_b = post_request body_b in
      let pa = Http.create_parser () and pb = Http.create_parser () in
      let rec go off ra rb =
        match (ra, rb) with
        | Some ra, Some rb -> (ra, rb)
        | _ ->
          let ra = if ra = None then feed_from pa raw_a off 4096 else ra in
          let rb = if rb = None then feed_from pb raw_b off 4096 else rb in
          go (off + 4096) ra rb
      in
      let ra, rb = go 0 None None in
      Alcotest.(check bool) "first body intact" true (body_of ra = body_a);
      Alcotest.(check bool) "second body intact" true (body_of rb = body_b);
      Http.release pa;
      let body_c = String.make 180_000 'c' in
      let pc = Http.create_parser () in
      (match Http.feed pc (post_request body_c) with
       | `Request rc -> Alcotest.(check bool) "third body intact" true (body_of rc = body_c)
       | _ -> Alcotest.fail "third request not parsed");
      Alcotest.(check bool) "second body survives the third" true (body_of rb = body_b);
      Http.release pc;
      Http.release pb)

(* A head declaring 64 MiB followed by 10 bytes grows the domain's
   buffer to the 64 KiB first share and no further, and a parser given
   up mid-body still returns the buffer: the next request on the domain
   reads into it without allocating a body. *)
let test_http_declared_body_bound () =
  on_fresh_domain (fun () ->
      let p = Http.create_parser () in
      let w0 = folded_major_words () in
      (match
         Http.feed p
           "POST /partition HTTP/1.1\r\nContent-Length: 67108864\r\n\r\n0123456789"
       with
       | `More -> ()
       | _ -> Alcotest.fail "a 64 MiB body is incomplete after 10 bytes");
      let bytes = (folded_major_words () -. w0) *. float_of_int (Sys.word_size / 8) in
      if bytes > 65536. +. 4096. then
        Alcotest.failf "10 body bytes grew a %.0f-byte buffer" bytes;
      Http.release p;
      let body = String.make 60_000 'x' in
      let raw = post_request body in
      let p = Http.create_parser () in
      let w0 = folded_major_words () in
      let r = Http.feed p raw in
      let bytes = (folded_major_words () -. w0) *. float_of_int (Sys.word_size / 8) in
      (match r with
       | `Request r -> Alcotest.(check bool) "body intact" true (body_of r = body)
       | _ -> Alcotest.fail "request not parsed");
      if bytes > 4096. then
        Alcotest.failf "a request after a released one allocated %.0f major bytes" bytes;
      Http.release p)

let test_http_at_limit_body () =
  match
    Http.feed
      (Http.create_parser ~max_body:5 ())
      "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
  with
  | `Request r -> Alcotest.(check string) "body" "hello" (body_of r)
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
   | `Request r -> Alcotest.(check string) "body" "hello" (body_of r)
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

(* The answer renderer as it was before answers were written in one
   allocation: a [Buffer] of [string_of_int] sides (plain), a list of
   [J.int] strings (JSON), and a head and body copied into one more
   [Buffer].  The daemon's answers must stay byte-identical to it. *)
module J = Hypart_telemetry.Json_out

let reference_response ~headers ~body =
  let b = Buffer.create (256 + String.length body) in
  Buffer.add_string b "HTTP/1.1 200 OK\r\n";
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\nConnection: close\r\n\r\n"
       (String.length body));
  Buffer.add_string b body;
  Buffer.contents b

let reference_answer ~out ~want_assignment ~headers ~fields assignment =
  match out with
  | `Plain ->
    let body =
      match assignment with
      | Some sides ->
        let b = Buffer.create (2 * Array.length sides) in
        Array.iter
          (fun s ->
            Buffer.add_string b (string_of_int s);
            Buffer.add_char b '\n')
          sides;
        Buffer.contents b
      | None -> ""
    in
    reference_response ~headers ~body
  | `Json ->
    let fields =
      fields
      @
      match assignment with
      | Some sides when want_assignment ->
        [ ("assignment", J.arr (Array.to_list (Array.map J.int sides))) ]
      | _ -> []
    in
    reference_response ~headers ~body:(J.obj fields)

let prop_answer_bytes =
  QCheck.Test.make ~name:"answers are byte-identical to the earlier renderer"
    ~count:300 ~long_factor:20 QCheck.(int_bound 0x3FFFFFFF) (fun seed ->
      let rng = Random.State.make [| seed |] in
      (* one case in eight has no vertices: the JSON array is "[]" *)
      let n = if seed mod 8 = 0 then 0 else Random.State.int rng 300 in
      let sides = Array.init n (fun _ -> Random.State.int rng 2) in
      let solution =
        Bipartition.make (Hg.create ~num_vertices:n ~edges:[||] ()) sides
      in
      let text () =
        String.init (Random.State.int rng 12) (fun _ ->
            Char.chr (Random.State.int rng 128))
      in
      let headers =
        List.init (Random.State.int rng 5) (fun i ->
            (Printf.sprintf "X-Test-%d" i, text ()))
      in
      let fields =
        List.init (Random.State.int rng 6) (fun _ ->
            ( text (),
              if Random.State.bool rng then J.int (Random.State.bits rng)
              else J.string (text ()) ))
      in
      List.for_all
        (fun (out, want_assignment, with_solution) ->
          let got =
            Server.render_answer ~out ~want_assignment ~headers ~fields
              (if with_solution then Some solution else None)
          in
          let want =
            reference_answer ~out ~want_assignment ~headers ~fields
              (if with_solution then Some sides else None)
          in
          got = want
          || QCheck.Test.fail_reportf
               "%d sides, solution %b, assignment=%b:\n%S\n%S" n with_solution
               want_assignment got want)
        [
          (`Plain, true, true);
          (`Plain, true, false);
          (`Plain, false, true);
          (`Json, true, true);
          (`Json, true, false);
          (`Json, false, true);
        ])

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

let with_server ?(workers = 2) ?(queue_capacity = 8) ?store f =
  let server =
    Server.create
      {
        Server.default_config with
        Server.port = 0;
        workers;
        queue_capacity;
        retention = 64;
        store;
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

(* a starts=4 request answers what `hypart partition --starts 4
   --domains 1` prints and writes: both run the one seeded multistart
   over seeds 5..8 *)
let test_serve_matches_cli_multistart () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/hypart.exe" in
  let part = Filename.temp_file "hypart_cli_multistart" ".part" in
  let out = Filename.temp_file "hypart_cli_multistart" ".txt" in
  let cmd =
    Printf.sprintf
      "%s partition ibm01 --scale 8 --seed 5 --starts 4 --domains 1 -o %s > %s 2>&1"
      (Filename.quote exe) (Filename.quote part) (Filename.quote out)
  in
  Alcotest.(check int) "cli exit code" 0 (Sys.command cmd);
  let cli_cut =
    In_channel.with_open_bin out In_channel.input_lines
    |> List.find_map (fun l -> Scanf.sscanf_opt l "best cut: %d" Fun.id)
    |> Option.get
  in
  let h = Hypart_generator.Ibm_suite.instance ~scale:8.0 "ibm01" in
  let cli_sides = Io.read_partition part ~num_vertices:(Hg.num_vertices h) in
  List.iter Sys.remove [ part; out ];
  with_server (fun _server port ->
      let path =
        Client.partition_path ~engine:"mlclip" ~seed:5 ~starts:4 ~tolerance:0.02
          ~format:"hgr" ()
      in
      match Client.post ~host:"127.0.0.1" ~port ~path ~body:(Io.hgr_string h) () with
      | Error f -> Alcotest.fail (Client.failure_message f)
      | Ok served ->
        Alcotest.(check int) "served cut = cli cut" cli_cut served.Client.cut;
        Alcotest.(check (option (array int)))
          "served assignment = cli partition" (Some cli_sides)
          served.Client.assignment)

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

(* a persistent --store: one fresh run appends one record, and a
   second daemon on the same directory answers the same request from
   it without running the engine *)
let test_serve_store_persists () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hypart_serve_store_%d" (Unix.getpid ()))
  in
  let lines () =
    In_channel.with_open_bin (Filename.concat dir "runs.jsonl")
      In_channel.input_lines
  in
  Atomic.set count_runs 0;
  let first =
    with_server ~store:dir (fun _server port ->
        submit ~query:"&engine=test-count&seed=41" port)
  in
  Alcotest.(check string) "first fresh" "false" (hdr first "x-hypart-cached");
  Alcotest.(check int) "one record appended" 1 (List.length (lines ()));
  let again =
    with_server ~store:dir (fun _server port ->
        submit ~query:"&engine=test-count&seed=41" port)
  in
  Alcotest.(check string) "restart cached" "true"
    (hdr again "x-hypart-cached");
  Alcotest.(check string) "same cut" (hdr first "x-hypart-cut")
    (hdr again "x-hypart-cut");
  Alcotest.(check int) "one engine run in total" 1 (Atomic.get count_runs);
  Alcotest.(check int) "still one record" 1 (List.length (lines ()))

(* ---------------- parsed-instance cache ---------------- *)

(* instance-cache keys as earlier daemons computed them.  The key is
   in-memory state only, so its value moved once, when the byte-serial
   FNV-1a (32860053fb08ccf2 here) gave way to the word-at-a-time hash;
   nothing persisted or displayed carries it. *)
let test_icache_key_golden () =
  Alcotest.(check string) "tiny hgr" "656d4f54f8defc4d"
    (Instance_cache.key ~format:"hgr" ~body:tiny_hgr)

let hgr_key body = Instance_cache.key ~format:"hgr" ~body

(* one byte changed anywhere changes the key: full words, the top byte
   of a word and the tail bytes after the last full word *)
let prop_icache_key_byte =
  QCheck.Test.make ~name:"changing any one byte changes the key" ~count:500
    ~long_factor:100
    QCheck.(triple (string_of_size Gen.(1 -- 64)) small_nat (int_range 1 255))
    (fun (body, at, flip) ->
      let at = at mod String.length body in
      let changed = Bytes.of_string body in
      Bytes.set changed at (Char.chr (Char.code body.[at] lxor flip));
      hgr_key (Bytes.to_string changed) <> hgr_key body)

let test_icache_key_sensitivity () =
  let check name a b = Alcotest.(check bool) name true (hgr_key a <> hgr_key b) in
  let words = String.make 24 'a' in
  (* bit 63 of a little-endian word is the top bit of its eighth byte:
     flipping it in two words cancels in a word-wise FNV-1a, whose
     multiply never carries the top bit anywhere *)
  let flip_top body words_at =
    let b = Bytes.of_string body in
    List.iter
      (fun w ->
        let i = (8 * w) + 7 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x80)))
      words_at;
    Bytes.to_string b
  in
  check "bit 63 of words 0 and 1" words (flip_top words [ 0; 1 ]);
  check "bit 63 of words 0 and 2" words (flip_top words [ 0; 2 ]);
  check "bit 63 of word 1" words (flip_top words [ 1 ]);
  (* trailing NULs are bytes, not padding *)
  check "one NUL appended" tiny_hgr (tiny_hgr ^ "\000");
  check "eight NULs appended" words (words ^ String.make 8 '\000');
  check "empty vs NUL" "" "\000";
  (* the tag and the body are two parts: a byte moved across the
     boundary between them is a different key *)
  Alcotest.(check bool) "byte moved from body to tag" true
    (Instance_cache.key ~format:"hgr" ~body:"b2 4\n"
    <> Instance_cache.key ~format:"hgrb" ~body:"2 4\n");
  Alcotest.(check bool) "byte moved from tag to body" true
    (Instance_cache.key ~format:"hg" ~body:"r2 4\n"
    <> Instance_cache.key ~format:"hgr" ~body:"2 4\n")

(* the hash runs in unboxed locals: on a 1.9 MB body the only minor
   words are the 16-digit result (a header and three words), where a
   boxed Int64 in the loop would cost three words per 8 body bytes *)
let test_icache_key_allocation () =
  let body = String.init 1_900_003 (fun i -> Char.chr (i * 7919 land 0xff)) in
  ignore (hgr_key body);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (hgr_key body));
  let words = Gc.minor_words () -. w0 in
  if words > 4. then
    Alcotest.failf "Instance_cache.key allocated %.0f minor words" words

(* the key of a slice is the key of the string it holds, whatever
   bytes follow it in the buffer *)
let prop_icache_key_slice =
  QCheck.Test.make ~name:"a slice's key is its string's key" ~count:500
    ~long_factor:100
    QCheck.(pair (string_of_size Gen.(0 -- 100)) (string_of_size Gen.(0 -- 16)))
    (fun (body, after) ->
      Instance_cache.key_bytes ~format:"hgr" (Bytes.of_string (body ^ after))
        (String.length body)
      = hgr_key body)

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
      match
        Json_in.member "instances_resident"
          (Json_in.parse health.Http.resp_body)
      with
      | Some (Json_in.Num n) ->
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

let body_has ?(expect = true) needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  Alcotest.(check bool)
    (Printf.sprintf "%s %s" needle (if expect then "present" else "absent"))
    expect (go 0)

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
      (* the error names the request body and its line, never a file *)
      let bad = submit ~body:"2 4\n1 2\nbogus\n" ~query:"&engine=flat" port in
      Alcotest.(check int) "bad hgr is 400" 400 bad.Http.status;
      body_has "<body>:3: expected integer" bad.Http.resp_body;
      body_has ~expect:false "/tmp" bad.Http.resp_body;
      (* Bookshelf lines count from the start of the body, not of its
         .nets section *)
      let shelf =
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n  a0 1 1\n  a1 1 1\n\
         UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2  n0\n  a0 B\n\
        \  a9 B\n"
      in
      let bad = submit ~body:shelf ~query:"&engine=flat&format=bookshelf" port in
      Alcotest.(check int) "bad bookshelf is 400" 400 bad.Http.status;
      body_has "<body>:11: node" bad.Http.resp_body;
      body_has ~expect:false "/tmp" bad.Http.resp_body;
      let missing = get port "/jobs/999999" in
      Alcotest.(check int) "unknown job is 404" 404 missing.Http.status;
      let nope = get port "/no-such-endpoint" in
      Alcotest.(check int) "unknown path is 404" 404 nope.Http.status)

(* a tolerance outside Balance's range is the request's fault: 400
   before any job runs, never a 500 engine failure *)
let test_serve_rejects_bad_tolerance () =
  with_server (fun _server port ->
      let counter = Hypart_telemetry.Metrics.counter_value in
      let failures0 = counter "server.failures" in
      List.iter
        (fun tol ->
          let resp = submit ~query:("&engine=flat&tol=" ^ tol) port in
          Alcotest.(check int) ("tol=" ^ tol ^ " is 400") 400 resp.Http.status)
        [ "1.5"; "1"; "0"; "-0.1"; "nan" ];
      Alcotest.(check int) "no engine failure counted" failures0
        (counter "server.failures"))

(* an .hgr header naming far more vertices than its body could hold is
   the request's fault: a located 400 before anything is allocated for
   them, never a 500 engine failure *)
let test_serve_rejects_huge_vertex_count () =
  with_server (fun _server port ->
      let counter = Hypart_telemetry.Metrics.counter_value in
      let failures0 = counter "server.failures" in
      let resp = submit ~body:"1 2000000000\n1 2\n" ~query:"&engine=flat" port in
      Alcotest.(check int) "huge vertex count is 400" 400 resp.Http.status;
      body_has "<body>:1: vertex count 2000000000 out of range" resp.Http.resp_body;
      Alcotest.(check int) "no engine failure counted" failures0
        (counter "server.failures"))

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

let gauge name =
  List.find_map
    (function
      | Hypart_telemetry.Metrics.E_gauge (n, v) when n = name -> Some v
      | _ -> None)
    (Hypart_telemetry.Metrics.snapshot ())
  |> function
  | Some v -> v
  | None -> Alcotest.failf "no %s gauge" name

(* The runtime.* probes read the whole process's heap, so the words a
   live worker domain allocates count in runtime.major_words. *)
let test_serve_runtime_gauges () =
  with_server (fun _server port ->
      let before = gauge "runtime.major_words" in
      let allocated = Atomic.make false and release = Atomic.make false in
      let worker =
        Domain.spawn (fun () ->
            (* 100 blocks of 10,001 words, each allocated on the major
               heap; a domain folds such words into its counts at its
               next major slice *)
            let keep = List.init 100 (fun _ -> Array.make 10_000 0) in
            ignore (Gc.major_slice 0);
            Atomic.set allocated true;
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done;
            List.length keep)
      in
      while not (Atomic.get allocated) do
        Unix.sleepf 0.001
      done;
      (* a minor collection stops every domain, which publishes its
         counts *)
      Gc.minor ();
      let after = gauge "runtime.major_words" in
      Atomic.set release true;
      Alcotest.(check int) "worker kept its blocks" 100 (Domain.join worker);
      if after -. before < 1_000_100. then
        Alcotest.failf "runtime.major_words rose by %.0f, not the worker's 1000100"
          (after -. before);
      Alcotest.(check bool) "heap words" true (gauge "runtime.heap_words" > 0.);
      Alcotest.(check bool) "collections" true
        (gauge "runtime.major_collections" >= 0.);
      body_has "runtime.major_collections" (get port "/metrics").Http.resp_body)

(* Two scrapes answered by different domains never see
   runtime.major_words fall.  A domain reads its own live counts but
   the other domains' counts as sampled at their last stop-the-world
   minor collection, so without a fresh sample the words another
   domain just allocated on the major heap show in its own read and
   not yet in the next one. *)
let test_serve_runtime_gauges_monotonic () =
  with_server (fun _server _port ->
      let rounds = 20 in
      let turn = Atomic.make 0 and other_read = Atomic.make 0. in
      let wait n =
        while Atomic.get turn <> n do
          Domain.cpu_relax ()
        done
      in
      let other =
        Domain.spawn (fun () ->
            for i = 0 to rounds - 1 do
              wait (2 * i);
              (* 100 blocks of 10,001 words on the major heap, folded
                 into this domain's counts by a major slice *)
              let keep = List.init 100 (fun _ -> Array.make 10_000 0) in
              ignore (Gc.major_slice 0);
              Atomic.set other_read (gauge "runtime.major_words");
              ignore (Sys.opaque_identity keep);
              Atomic.set turn ((2 * i) + 1)
            done)
      in
      let falls = ref [] in
      for i = 0 to rounds - 1 do
        wait ((2 * i) + 1);
        let mine = gauge "runtime.major_words" and theirs = Atomic.get other_read in
        if mine < theirs then falls := (theirs -. mine) :: !falls;
        Atomic.set turn (2 * (i + 1))
      done;
      Domain.join other;
      if !falls <> [] then
        Alcotest.failf "runtime.major_words fell between scrapes %d time(s), by up to %.0f words"
          (List.length !falls) (List.fold_left Float.max 0. !falls))

(* A dedup resend reads its body into the worker's kept buffer: over
   20 resends of the 1.9 MB ibm18 twin the process allocates at most
   0.02 major words per body byte, where a fresh buffer per request
   (grown through its shares) cost about 0.25.  One worker, so the
   priming send has grown the only buffer; a full major cycle and a
   minor collection make every domain fold and publish its counts at
   both ends. *)
let test_serve_dedup_major_words () =
  let body = Io.hgr_string (Hypart_generator.Ibm_suite.instance ~scale:3.0 "ibm18") in
  with_server ~workers:1 (fun _server port ->
      let send () =
        let r = submit ~query:"&engine=flat&seed=3" ~body port in
        Alcotest.(check int) "status" 200 r.Http.status
      in
      send ();
      send ();
      let major () =
        Gc.full_major ();
        Gc.minor ();
        (Gc.quick_stat ()).Gc.major_words
      in
      let w0 = major () in
      for _ = 1 to 20 do
        send ()
      done;
      let per_byte = (major () -. w0) /. 20. /. float_of_int (String.length body) in
      if per_byte > 0.02 then
        Alcotest.failf "a dedup resend allocates %.4f major words per body byte (budget 0.02)"
          per_byte)

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

(* /jobs/<id> of an answered job: its phase split and wall time *)
let job_phases port resp =
  let job = Json_in.parse (get port ("/jobs/" ^ hdr resp "x-hypart-job")).Http.resp_body in
  let num = function Some (Json_in.Num f) -> f | _ -> Alcotest.fail "not a number" in
  match Json_in.member "phases" job with
  | Some (Json_in.Obj kvs) ->
    (List.map (fun (k, v) -> (k, num (Some v))) kvs, num (Json_in.member "wall_seconds" job))
  | _ -> Alcotest.fail "no phases object"

(* A cold /partition — an instance-cache miss — accounts for its wall
   time phase by phase; served again by a daemon that shares the run
   store but not the instance cache, the same request parses again and
   is answered from the lab cache without an engine run. *)
let test_serve_phases () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hypart_serve_phases_%d" (Unix.getpid ()))
  in
  (* the first send must run the engine, whatever an earlier process
     with this pid left behind *)
  (try Sys.remove (Filename.concat dir "runs.jsonl") with Sys_error _ -> ());
  let body = Io.hgr_string (Hypart_generator.Ibm_suite.instance ~scale:4.0 "ibm01") in
  let query = "&engine=mlclip&seed=3" in
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0. in
  let phase name phases =
    match List.assoc_opt name phases with
    | Some s -> s
    | None -> Alcotest.fail ("no phase " ^ name)
  in
  let names = [ "queue_wait"; "decode"; "key"; "parse"; "fingerprint"; "engine"; "encode" ] in
  with_server ~store:dir (fun _server port ->
      let resp = submit ~query ~body port in
      Alcotest.(check string) "fresh" "false" (hdr resp "x-hypart-cached");
      let phases, wall = job_phases port resp in
      Alcotest.(check (list string)) "phase names" names (List.map fst phases);
      Alcotest.(check bool) "parse > 0" true (phase "parse" phases > 0.);
      Alcotest.(check bool) "engine > 0" true (phase "engine" phases > 0.);
      if Float.abs (sum phases -. wall) > 0.05 *. wall then
        Alcotest.failf "phases sum to %.6f s of a %.6f s handler" (sum phases) wall);
  with_server ~store:dir (fun _server port ->
      let resp = submit ~query ~body port in
      Alcotest.(check string) "lab cache" "true" (hdr resp "x-hypart-cached");
      let phases, wall = job_phases port resp in
      Alcotest.(check bool) "parse > 0" true (phase "parse" phases > 0.);
      Alcotest.(check (float 0.)) "engine" 0. (phase "engine" phases);
      Alcotest.(check bool) "within the wall" true (sum phases <= wall))

(* The daemon records metrics but no spans unless a trace was asked
   for: nothing drains the per-domain span buffers, so an untraced
   daemon would grow them with every fm.pass of every request. *)
let test_serve_untraced_records_no_spans () =
  Hypart_telemetry.Control.disable ();
  let fm_runs port =
    match
      Option.bind
        (Json_in.member "counters" (Json_in.parse (get port "/metrics").Http.resp_body))
        (Json_in.member "fm.runs")
    with
    | Some (Json_in.Num n) -> n
    | _ -> 0.
  in
  with_server (fun _server port ->
      let spans = Hypart_telemetry.Trace.event_count () in
      let runs = fm_runs port in
      List.iter
        (fun seed ->
          let resp = submit ~query:(Printf.sprintf "&engine=flat&seed=%d" seed) port in
          Alcotest.(check string) "engine ran" "false" (hdr resp "x-hypart-cached"))
        [ 41; 42 ];
      Alcotest.(check int) "no spans recorded" spans (Hypart_telemetry.Trace.event_count ());
      Alcotest.(check bool) "fm.runs advanced" true (fm_runs port >= runs +. 2.))

let test_serve_event_lifecycle () =
  (* the flight recorder sees the whole request lifecycle, with the
     client's request id on every line *)
  let module Event_log = Hypart_telemetry.Event_log in
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
        let j = Json_in.parse l in
        let name =
          match Json_in.member "event" j with
          | Some (Json_in.Str s) -> s
          | _ -> Alcotest.failf "event line without name: %s" l
        in
        (name, j))
      !lines
  in
  let of_rid =
    List.filter
      (fun (_, j) ->
        Json_in.member "request_id" j = Some (Json_in.Str "555001"))
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
      match Json_in.member "ts_us" j with
      | Some (Json_in.Num _) -> ()
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
        match Json_in.member "key" (Json_in.parse resp.Http.resp_body) with
        | Some (Json_in.Str k) -> k
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
  match Json_in.member "jobs_total" (Json_in.parse resp.Http.resp_body) with
  | Some (Json_in.Num n) -> int_of_float n
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
              (o.Client.assignment <> None)
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
          o.Client.cut
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
          o.Client.served_by
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
              match o.Client.assignment with
              | Some assignment ->
                {
                  Executor.cut = o.Client.cut;
                  legal = o.Client.legal;
                  seconds = o.Client.seconds;
                  assignment;
                  source = o.Client.served_by;
                  stats = [];
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
          Alcotest.test_case "body memory bound" `Quick test_http_body_bound;
          Alcotest.test_case "interleaved parsers" `Quick test_http_interleaved_parsers;
          Alcotest.test_case "declared body bound" `Quick test_http_declared_body_bound;
          Alcotest.test_case "malformed requests" `Quick test_http_malformed;
          Alcotest.test_case "response round trip" `Quick
            test_http_response_round_trip;
          Alcotest.test_case "expect 100-continue" `Quick
            test_http_expect_continue;
          QCheck_alcotest.to_alcotest prop_http_splits;
          QCheck_alcotest.to_alcotest prop_http_garbage;
          QCheck_alcotest.to_alcotest prop_answer_bytes;
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
          Alcotest.test_case "starts=4 = partition --starts 4" `Quick
            test_serve_matches_cli_multistart;
          Alcotest.test_case "dedup zero runs" `Quick test_serve_dedup_zero_runs;
          Alcotest.test_case "store persists" `Quick test_serve_store_persists;
          Alcotest.test_case "instance cache LRU" `Quick test_icache_lru;
          Alcotest.test_case "instance cache key golden" `Quick
            test_icache_key_golden;
          QCheck_alcotest.to_alcotest prop_icache_key_byte;
          QCheck_alcotest.to_alcotest prop_icache_key_slice;
          Alcotest.test_case "instance cache key sensitivity" `Quick
            test_icache_key_sensitivity;
          Alcotest.test_case "instance cache key allocation" `Quick
            test_icache_key_allocation;
          Alcotest.test_case "instance cache reuse" `Quick
            test_serve_instance_cache;
          Alcotest.test_case "hgrb format" `Quick test_serve_hgrb_format;
          Alcotest.test_case "queue full 503" `Quick test_serve_queue_full_503;
          Alcotest.test_case "deadline 504" `Quick test_serve_deadline_504;
          Alcotest.test_case "survives malformed" `Quick
            test_serve_survives_malformed;
          Alcotest.test_case "bad tolerance is 400" `Quick
            test_serve_rejects_bad_tolerance;
          Alcotest.test_case "rejects huge vertex count" `Quick
            test_serve_rejects_huge_vertex_count;
          Alcotest.test_case "expect 100-continue" `Quick
            test_serve_expect_continue;
          Alcotest.test_case "jobs and metrics" `Quick test_serve_jobs_and_metrics;
          Alcotest.test_case "request id propagation" `Quick
            test_serve_request_id_propagation;
          Alcotest.test_case "prometheus negotiation" `Quick
            test_serve_prometheus_negotiation;
          Alcotest.test_case "runtime gauges" `Quick test_serve_runtime_gauges;
          Alcotest.test_case "runtime gauges never fall" `Quick
            test_serve_runtime_gauges_monotonic;
          Alcotest.test_case "dedup resend major words" `Quick
            test_serve_dedup_major_words;
          Alcotest.test_case "job durations" `Quick test_serve_job_durations;
          Alcotest.test_case "request phases" `Quick test_serve_phases;
          Alcotest.test_case "untraced daemon records no spans" `Quick
            test_serve_untraced_records_no_spans;
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
