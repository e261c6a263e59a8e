(* Telemetry: metrics registry, span tracer, and the CLI's --trace /
   --metrics export.  Each test resets the global registry/tracer so
   ordering inside this binary does not matter. *)

module Telemetry = Hypart_telemetry.Telemetry
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace
module Json_in = Hypart_telemetry.Json_in

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
  scan 0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fresh () =
  Telemetry.reset ();
  Telemetry.enable ()

let teardown () =
  Telemetry.reset ();
  Telemetry.disable ()

let with_fresh f =
  fresh ();
  Fun.protect ~finally:teardown f

(* -- switch -- *)

let test_disabled_noop () =
  Telemetry.reset ();
  Telemetry.disable ();
  Metrics.incr "off.counter";
  Metrics.observe "off.histo" 1.0;
  Trace.span "off.span" (fun () -> ()) |> ignore;
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value "off.counter");
  Alcotest.(check bool) "histo untouched" true
    (Metrics.histogram_stats "off.histo" = None);
  Alcotest.(check int) "no spans" 0 (Trace.event_count ())

let test_with_enabled_restores () =
  Telemetry.reset ();
  Telemetry.disable ();
  Telemetry.with_enabled (fun () ->
      Alcotest.(check bool) "enabled inside" true (Telemetry.is_enabled ()));
  Alcotest.(check bool) "restored" false (Telemetry.is_enabled ());
  (try Telemetry.with_enabled (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored on raise" false (Telemetry.is_enabled ())

(* -- metrics -- *)

let test_counters () =
  with_fresh @@ fun () ->
  Metrics.incr "t.counter";
  Metrics.incr ~by:41 "t.counter";
  Alcotest.(check int) "accumulates" 42 (Metrics.counter_value "t.counter");
  Alcotest.(check int) "unknown is 0" 0 (Metrics.counter_value "t.unknown")

let test_kind_mismatch () =
  with_fresh @@ fun () ->
  Metrics.incr "t.kind";
  Alcotest.check_raises "gauge on counter" (Invalid_argument "x") (fun () ->
      try Metrics.set_gauge "t.kind" 1.0
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_histogram_quantiles () =
  with_fresh @@ fun () ->
  (* 1..100 in shuffled-ish order: nearest-rank quantiles are exact *)
  for i = 0 to 99 do
    Metrics.observe "t.histo" (float_of_int (((i * 37) mod 100) + 1))
  done;
  let q p = Option.get (Metrics.quantile "t.histo" p) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (q 0.5);
  Alcotest.(check (float 1e-9)) "p90" 90.0 (q 0.9);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (q 0.99);
  Alcotest.(check (float 1e-9)) "p0 -> min" 1.0 (q 0.0);
  Alcotest.(check (float 1e-9)) "p100 -> max" 100.0 (q 1.0);
  let s = Option.get (Metrics.histogram_stats "t.histo") in
  Alcotest.(check int) "count" 100 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "mean" 50.5 s.Metrics.mean;
  Alcotest.(check bool) "empty name" true (Metrics.quantile "t.none" 0.5 = None)

let test_counter_aggregation_across_domains () =
  with_fresh @@ fun () ->
  (* 4 domains x 1000 increments racing on one counter *)
  let worker () =
    Domain.spawn (fun () ->
        for _ = 1 to 1000 do
          Metrics.incr "t.race";
          Metrics.observe "t.race_histo" 1.0
        done)
  in
  let ds = List.init 4 (fun _ -> worker ()) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" 4000 (Metrics.counter_value "t.race");
  let s = Option.get (Metrics.histogram_stats "t.race_histo") in
  Alcotest.(check int) "histogram samples" 4000 s.Metrics.count

let test_snapshot_and_json () =
  with_fresh @@ fun () ->
  Metrics.incr ~by:3 "t.c";
  Metrics.set_gauge "t.g" 2.5;
  Metrics.observe "t.h" 1.0;
  let all_names =
    List.map
      (function
        | Metrics.E_counter (n, _) -> n
        | Metrics.E_gauge (n, _) -> n
        | Metrics.E_histogram (n, _) -> n)
      (Metrics.snapshot ())
  in
  (* self-metric probes ride along in every snapshot *)
  let names, probe_names =
    List.partition
      (fun n -> not (String.starts_with ~prefix:"telemetry." n))
      all_names
  in
  Alcotest.(check (list string)) "sorted names" [ "t.c"; "t.g"; "t.h" ] names;
  Alcotest.(check bool) "probes present" true
    (List.mem "telemetry.unbalanced_spans" probe_names);
  let json = Metrics.to_json () in
  List.iter
    (fun needle ->
      if not (contains json needle) then
        Alcotest.failf "missing %S in %s" needle json)
    [ {|"t.c":3|}; {|"t.g":2.5|}; {|"counters"|}; {|"histograms"|} ];
  let csv = Metrics.to_csv () in
  Alcotest.(check bool) "csv header" true (contains csv "metric,kind,count,value")

let test_reservoir_cap () =
  with_fresh @@ fun () ->
  (* far beyond the cap: retention is bounded, aggregates stay exact *)
  let n = Metrics.reservoir_cap + 5000 in
  for i = 1 to n do
    Metrics.observe "t.res" (float_of_int i)
  done;
  Alcotest.(check int) "retained capped" Metrics.reservoir_cap
    (Metrics.histogram_retained "t.res");
  let s = Option.get (Metrics.histogram_stats "t.res") in
  Alcotest.(check int) "count exact" n s.Metrics.count;
  Alcotest.(check (float 1e-9)) "min exact" 1.0 s.Metrics.min;
  Alcotest.(check (float 1e-9)) "max exact" (float_of_int n) s.Metrics.max;
  Alcotest.(check (float 1e-6)) "sum exact"
    (float_of_int n *. float_of_int (n + 1) /. 2.)
    s.Metrics.sum;
  Alcotest.(check (float 1e-6)) "mean exact"
    (float_of_int (n + 1) /. 2.)
    s.Metrics.mean;
  (* the reservoir is a uniform sample: p50 of 1..n lands well inside
     the range (a generous band, not a distributional assertion) *)
  Alcotest.(check bool) "p50 plausible" true
    (s.Metrics.p50 > 0.2 *. float_of_int n && s.Metrics.p50 < 0.8 *. float_of_int n);
  (* below the cap quantiles stay exact *)
  for i = 1 to 100 do
    Metrics.observe "t.exact" (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "exact p90 below cap" 90.0
    (Option.get (Metrics.quantile "t.exact" 0.9))

let test_reservoir_deterministic () =
  (* the replacement stream is seeded from the metric name, so two runs
     over the same data retain identical samples *)
  let sample () =
    with_fresh @@ fun () ->
    for i = 1 to Metrics.reservoir_cap + 1000 do
      Metrics.observe "t.det" (float_of_int i)
    done;
    Option.get (Metrics.histogram_stats "t.det")
  in
  let a = sample () and b = sample () in
  Alcotest.(check (float 1e-9)) "same p50" a.Metrics.p50 b.Metrics.p50;
  Alcotest.(check (float 1e-9)) "same p99" a.Metrics.p99 b.Metrics.p99

let test_prometheus_export () =
  with_fresh @@ fun () ->
  Metrics.incr ~by:7 "t.requests";
  Metrics.set_gauge "t.depth" 2.5;
  for i = 1 to 100 do
    Metrics.observe "t.lat" (float_of_int i)
  done;
  let prom = Metrics.to_prometheus () in
  List.iter
    (fun needle ->
      if not (contains prom needle) then
        Alcotest.failf "missing %S in:\n%s" needle prom)
    [
      "# TYPE t_requests_total counter";
      "t_requests_total 7";
      "# TYPE t_depth gauge";
      "t_depth 2.5";
      "# TYPE t_lat summary";
      "t_lat{quantile=\"0.5\"} 50";
      "t_lat{quantile=\"0.99\"} 99";
      "t_lat_sum 5050";
      "t_lat_count 100";
    ];
  (* every non-comment line is "name[{labels}] value" *)
  String.split_on_char '\n' prom
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.split_on_char ' ' line with
           | [ name; value ] ->
             Alcotest.(check bool)
               (Printf.sprintf "parsable value in %S" line)
               true
               (float_of_string_opt value <> None || value = "NaN");
             String.iter
               (fun c ->
                 match c with
                 | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' | '{' | '}'
                 | '"' | '=' | '.' -> ()
                 | c -> Alcotest.failf "bad char %C in metric name %S" c name)
               name
           | _ -> Alcotest.failf "unparsable exposition line %S" line)

let test_prometheus_json_consistency () =
  with_fresh @@ fun () ->
  Metrics.incr ~by:3 "t.alpha";
  Metrics.incr ~by:11 "t.beta.gamma";
  let json = Json_in.parse (Metrics.to_json ()) in
  let prom = Metrics.to_prometheus () in
  let counters =
    match Json_in.member "counters" json with
    | Some (Json_in.Obj kvs) -> kvs
    | _ -> Alcotest.fail "counters object missing"
  in
  (* every JSON counter appears in the Prometheus encoding under its
     sanitised name with the same value *)
  List.iter
    (fun (name, v) ->
      let v = match v with Json_in.Num f -> f | _ -> nan in
      let line =
        Printf.sprintf "%s_total %.0f" (Metrics.prometheus_name name) v
      in
      if not (contains prom line) then
        Alcotest.failf "JSON counter %s=%g not in Prometheus output:\n%s" name
          v prom)
    counters;
  Alcotest.(check string) "name sanitisation" "t_beta_gamma"
    (Metrics.prometheus_name "t.beta.gamma");
  Alcotest.(check string) "leading digit guarded" "_9lives"
    (Metrics.prometheus_name "9lives")

let test_gain_removes_equals_fm_moves () =
  (* invariant of the engine instrumentation: [Gain_container.remove]
     fires exactly once per applied move (repositions are counted
     separately and never inflate removes), so after any mix of FM runs
     the two counters must agree exactly *)
  with_fresh @@ fun () ->
  let module H = Hypart_hypergraph.Hypergraph in
  let module Rng = Hypart_rng.Rng in
  let module Problem = Hypart_partition.Problem in
  let module Fm = Hypart_fm.Fm in
  let module Fm_config = Hypart_fm.Fm_config in
  let rng = Rng.create 90 in
  let edges =
    Array.init 200 (fun _ ->
        Rng.sample_distinct rng ~n:(2 + Rng.int rng 5) ~universe:90)
  in
  let h = H.create ~num_vertices:90 ~edges () in
  let p = Problem.make ~tolerance:0.10 h in
  List.iter
    (fun config ->
      let engine =
        Hypart_fm.Fm_engines.of_config ~name:"fm" ~description:"" config
      in
      ignore (Hypart_engine.Engine.multistart engine (Rng.create 91) p ~starts:5))
    [ Fm_config.strong_lifo; Fm_config.strong_clip; Fm_config.reported_clip ];
  let moves = Metrics.counter_value "fm.moves" in
  Alcotest.(check bool) "some moves happened" true (moves > 0);
  Alcotest.(check int) "gain.removes = fm.moves" moves
    (Metrics.counter_value "gain.removes");
  Alcotest.(check bool) "inserts disjoint from repositions" true
    (Metrics.counter_value "gain.inserts" >= moves)

(* -- tracing -- *)

let test_span_nesting () =
  with_fresh @@ fun () ->
  Trace.span "outer" (fun () ->
      Trace.span "inner" (fun () -> Sys.opaque_identity (ref 0) |> ignore));
  Alcotest.(check int) "two spans" 2 (Trace.event_count ());
  Alcotest.(check int) "balanced" 0 (Trace.unbalanced_spans ());
  Alcotest.(check int) "none open" 0 (Trace.open_spans ());
  match Trace.events () with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer first (sorted by start)" "outer"
      outer.Trace.name;
    Alcotest.(check string) "inner second" "inner" inner.Trace.name;
    Alcotest.(check bool) "inner starts inside outer" true
      (inner.Trace.ts_us >= outer.Trace.ts_us);
    Alcotest.(check bool) "inner ends inside outer" true
      (inner.Trace.ts_us +. inner.Trace.dur_us
      <= outer.Trace.ts_us +. outer.Trace.dur_us +. 1e-3)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_unbalanced_detection () =
  with_fresh @@ fun () ->
  Trace.end_span "never_opened";
  Alcotest.(check int) "stray end counted" 1 (Trace.unbalanced_spans ());
  Trace.begin_span "a";
  Trace.begin_span "b";
  Trace.end_span "a";
  (* mismatched: [b] is dropped as unbalanced, then [a] closes cleanly *)
  Trace.end_span "a";
  Alcotest.(check int) "mismatch counted" 2 (Trace.unbalanced_spans ());
  Alcotest.(check int) "a still recorded" 1 (Trace.event_count ());
  Alcotest.(check int) "stack drained" 0 (Trace.open_spans ())

let test_span_args_and_exception_safety () =
  with_fresh @@ fun () ->
  (try
     Trace.span "raising" ~args:[ ("k", 7.0) ] (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 1 (Trace.event_count ());
  Alcotest.(check int) "none open" 0 (Trace.open_spans ());
  match Trace.events () with
  | [ e ] -> Alcotest.(check bool) "args kept" true (List.mem_assoc "k" e.Trace.args)
  | _ -> Alcotest.fail "expected one event"

let test_spans_across_domains () =
  with_fresh @@ fun () ->
  Trace.span "main_side" (fun () ->
      let d =
        Domain.spawn (fun () -> Trace.span "domain_side" (fun () -> ()))
      in
      Domain.join d);
  Alcotest.(check int) "both domains recorded" 2 (Trace.event_count ());
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Trace.tid) (Trace.events ()))
  in
  Alcotest.(check int) "two distinct tracks" 2 (List.length tids)

let test_with_context () =
  with_fresh @@ fun () ->
  Trace.span "outside_before" (fun () -> ());
  Trace.with_context
    [ ("request_id", 42.0) ]
    (fun () ->
      Trace.span "ctx_outer" (fun () ->
          Trace.with_context
            [ ("job_id", 7.0) ]
            (fun () -> Trace.span ~args:[ ("cut", 3.0) ] "ctx_inner" (fun () -> ()))));
  Trace.span "outside_after" (fun () -> ());
  let find name = List.find (fun e -> e.Trace.name = name) (Trace.events ()) in
  let args name = (find name).Trace.args in
  Alcotest.(check bool) "no context before" true (args "outside_before" = []);
  Alcotest.(check bool) "no context after" true (args "outside_after" = []);
  Alcotest.(check (option (float 1e-9))) "outer has request_id" (Some 42.0)
    (List.assoc_opt "request_id" (args "ctx_outer"));
  Alcotest.(check bool) "outer has no job_id" true
    (List.assoc_opt "job_id" (args "ctx_outer") = None);
  let inner = args "ctx_inner" in
  Alcotest.(check (option (float 1e-9))) "inner keeps explicit args" (Some 3.0)
    (List.assoc_opt "cut" inner);
  Alcotest.(check (option (float 1e-9))) "inner inherits request_id" (Some 42.0)
    (List.assoc_opt "request_id" inner);
  Alcotest.(check (option (float 1e-9))) "inner nested job_id" (Some 7.0)
    (List.assoc_opt "job_id" inner)

let test_context_exception_safety () =
  with_fresh @@ fun () ->
  (try
     Trace.with_context [ ("request_id", 1.0) ] (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "context restored on raise" true (Trace.context () = []);
  Trace.span "after_raise" (fun () -> ());
  match Trace.events () with
  | [ e ] -> Alcotest.(check bool) "no leaked args" true (e.Trace.args = [])
  | _ -> Alcotest.fail "expected one event"

(* -- flight recorder -- *)

module Event_log = Hypart_telemetry.Event_log
module Jsonl = Hypart_telemetry.Jsonl

let test_event_log_roundtrip () =
  with_fresh @@ fun () ->
  let path = Filename.temp_file "hypart_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let log = Event_log.open_log path in
  Event_log.install log;
  Fun.protect ~finally:(fun () -> Event_log.close log) (fun () ->
      Alcotest.(check bool) "sink installed" true (Event_log.enabled ());
      Event_log.record "request.admitted"
        [ ("request_id", Jsonl.String "12345"); ("job", Jsonl.Int 1) ];
      Trace.with_context
        [ ("request_id", 12345.0); ("job_id", 1.0) ]
        (fun () ->
          Event_log.record "run.pass_improved"
            [ ("pass", Jsonl.Int 1); ("cut", Jsonl.Int 40) ]));
  Alcotest.(check bool) "sink uninstalled by close" true
    (not (Event_log.enabled ()));
  let lines =
    read_file path |> String.trim |> String.split_on_char '\n'
  in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  let parsed = List.map Json_in.parse lines in
  List.iter
    (fun j ->
      match Json_in.member "ts_us" j with
      | Some (Json_in.Num _) -> ()
      | _ -> Alcotest.fail "event missing numeric ts_us")
    parsed;
  (match parsed with
  | [ admitted; improved ] ->
    Alcotest.(check bool) "event name" true
      (Json_in.member "event" admitted = Some (Json_in.Str "request.admitted"));
    Alcotest.(check bool) "string field" true
      (Json_in.member "request_id" admitted = Some (Json_in.Str "12345"));
    (* the second event carries the ids from the trace context *)
    Alcotest.(check bool) "context merged" true
      (Json_in.member "request_id" improved = Some (Json_in.Num 12345.0));
    Alcotest.(check bool) "job id merged" true
      (Json_in.member "job_id" improved = Some (Json_in.Num 1.0));
    Alcotest.(check bool) "explicit field kept" true
      (Json_in.member "cut" improved = Some (Json_in.Num 40.0))
  | _ -> Alcotest.fail "expected two parsed events");
  Alcotest.(check int) "written counted" 2 (Event_log.written log)

let test_event_log_bounded () =
  with_fresh @@ fun () ->
  let path = Filename.temp_file "hypart_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let log = Event_log.open_log ~max_events:2 path in
  for i = 1 to 5 do
    Event_log.emit log "tick" [ ("i", Jsonl.Int i) ]
  done;
  Event_log.close log;
  Alcotest.(check int) "cap respected" 2 (Event_log.written log);
  Alcotest.(check int) "overflow counted" 3 (Event_log.dropped log);
  let lines = read_file path |> String.trim |> String.split_on_char '\n' in
  Alcotest.(check int) "file bounded" 2 (List.length lines);
  (* the drop total is observable as a self-metric *)
  let dropped_gauge =
    List.find_map
      (function
        | Metrics.E_gauge ("telemetry.events_dropped", v) -> Some v
        | _ -> None)
      (Metrics.snapshot ())
  in
  Alcotest.(check bool) "drops visible in snapshot" true
    (match dropped_gauge with Some v -> v >= 3.0 | None -> false)

let test_event_log_tail_repair () =
  with_fresh @@ fun () ->
  let path = Filename.temp_file "hypart_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* a crash left the log ending mid-line *)
  let partial = "{\"ts_us\":1,\"event\":\"run.pa" in
  Out_channel.with_open_bin path (fun oc -> output_string oc partial);
  let log = Event_log.open_log path in
  Event_log.emit log "tick" [ ("i", Jsonl.Int 1) ];
  Event_log.emit log "tick" [ ("i", Jsonl.Int 2) ];
  Event_log.close log;
  match String.split_on_char '\n' (read_file path) with
  | [ first; a; b; "" ] ->
    Alcotest.(check string) "partial line left on its own" partial first;
    List.iteri
      (fun i line ->
        let j = Json_in.parse line in
        Alcotest.(check bool) "event parses" true
          (Json_in.member "event" j = Some (Json_in.Str "tick"));
        Alcotest.(check bool) "fields intact" true
          (Json_in.member "i" j = Some (Json_in.Num (float_of_int (i + 1)))))
      [ a; b ]
  | lines ->
    Alcotest.failf "expected the partial line plus two events, got %d lines"
      (List.length lines - 1)

(* -- phase summary -- *)

let test_phase_summary () =
  with_fresh @@ fun () ->
  for _ = 1 to 3 do
    Trace.span "phase_a" (fun () -> ())
  done;
  Trace.span "phase_b" (fun () -> ());
  let phases = Telemetry.phase_summary () in
  let a = List.find (fun p -> p.Telemetry.name = "phase_a") phases in
  Alcotest.(check int) "calls aggregated" 3 a.Telemetry.calls;
  Alcotest.(check bool) "mean consistent" true
    (abs_float ((a.Telemetry.total_us /. 3.) -. a.Telemetry.mean_us) < 1e-6);
  Alcotest.(check int) "two phases" 2 (List.length phases)

(* -- CLI: --trace / --metrics files are valid JSON of the right shape -- *)

let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/hypart.exe"

let tmpdir = Filename.get_temp_dir_name ()

let run_cmd args =
  let out = Filename.concat tmpdir "hypart_telemetry_out.txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args
      (Filename.quote out)
  in
  Sys.command cmd

let test_cli_trace_json () =
  let trace = Filename.concat tmpdir "hypart_test_trace.json" in
  let metrics = Filename.concat tmpdir "hypart_test_metrics.json" in
  let code =
    run_cmd
      (Printf.sprintf
         "partition ibm01 --scale 64 --engine mlclip --starts 2 --trace %s \
          --metrics %s"
         (Filename.quote trace) (Filename.quote metrics))
  in
  Alcotest.(check int) "exit code" 0 code;
  (* the trace must parse as JSON and follow the Chrome trace_event
     object format: {"traceEvents": [{"ph":"X"|"M", "name", ...}, ...]} *)
  let j = Json_in.parse (read_file trace) in
  let events =
    match Json_in.member "traceEvents" j with
    | Some (Json_in.Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  let names =
    List.filter_map
      (fun e ->
        match (Json_in.member "ph" e, Json_in.member "name" e) with
        | Some (Json_in.Str ph), Some (Json_in.Str name) ->
          (* complete events need ts/dur/pid/tid numbers *)
          if ph = "X" then begin
            List.iter
              (fun k ->
                match Json_in.member k e with
                | Some (Json_in.Num _) -> ()
                | _ -> Alcotest.failf "event %s missing numeric %s" name k)
              [ "ts"; "dur"; "pid"; "tid" ];
            Some name
          end
          else None
        | _ -> Alcotest.fail "event missing ph/name")
      events
  in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then
        Alcotest.failf "expected span %S in trace" expected)
    [ "ml.run"; "ml.coarsen"; "fm.pass" ];
  (* metrics file: counters/gauges/histograms objects *)
  let m = Json_in.parse (read_file metrics) in
  (match Json_in.member "counters" m with
  | Some (Json_in.Obj kvs) ->
    Alcotest.(check bool) "fm.moves counted" true
      (List.exists (fun (k, _) -> k = "fm.moves") kvs)
  | _ -> Alcotest.fail "counters object missing");
  match Json_in.member "histograms" m with
  | Some (Json_in.Obj kvs) ->
    Alcotest.(check bool) "per-start cut histogram" true
      (List.exists (fun (k, _) -> k = "engine.start_cut") kvs)
  | _ -> Alcotest.fail "histograms object missing"

let test_cli_metrics_csv () =
  let csv_path = Filename.concat tmpdir "hypart_test_metrics.csv" in
  let code =
    run_cmd
      (Printf.sprintf "partition ibm01 --scale 64 --engine clip --metrics %s"
         (Filename.quote csv_path))
  in
  Alcotest.(check int) "exit code" 0 code;
  let csv = read_file csv_path in
  let lines = String.trim csv |> String.split_on_char '\n' in
  Alcotest.(check string) "csv header"
    "metric,kind,count,value,min,max,mean,p50,p90,p99" (List.hd lines);
  Alcotest.(check bool) "fm.moves counter row" true
    (List.exists (fun l -> String.starts_with ~prefix:"fm.moves,counter," l)
       (List.tl lines));
  Alcotest.(check bool) "histogram row has stats" true
    (List.exists (fun l -> String.starts_with ~prefix:"fm.pass_cut,histogram," l)
       (List.tl lines));
  (* every row has exactly the header's 10 columns *)
  List.iter
    (fun l ->
      Alcotest.(check int)
        (Printf.sprintf "10 columns in %S" l)
        10
        (List.length (String.split_on_char ',' l)))
    lines

let test_cli_events_jsonl () =
  let events_path = Filename.concat tmpdir "hypart_test_events.jsonl" in
  (try Sys.remove events_path with Sys_error _ -> ());
  let code =
    run_cmd
      (Printf.sprintf "partition ibm01 --scale 64 --engine clip --events %s"
         (Filename.quote events_path))
  in
  Alcotest.(check int) "exit code" 0 code;
  let lines = read_file events_path |> String.trim |> String.split_on_char '\n' in
  Alcotest.(check bool) "events recorded" true (List.length lines > 0);
  let names =
    List.map
      (fun l ->
        match Json_in.member "event" (Json_in.parse l) with
        | Some (Json_in.Str s) -> s
        | _ -> Alcotest.failf "event line without name: %s" l)
      lines
  in
  Alcotest.(check bool) "pass improvements recorded" true
    (List.mem "run.pass_improved" names)

let () =
  Alcotest.run "telemetry"
    [
      ( "switch",
        [
          Alcotest.test_case "disabled is no-op" `Quick test_disabled_noop;
          Alcotest.test_case "with_enabled restores" `Quick
            test_with_enabled_restores;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "aggregation across domains" `Quick
            test_counter_aggregation_across_domains;
          Alcotest.test_case "snapshot and export" `Quick
            test_snapshot_and_json;
          Alcotest.test_case "reservoir cap" `Quick test_reservoir_cap;
          Alcotest.test_case "reservoir deterministic" `Quick
            test_reservoir_deterministic;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_export;
          Alcotest.test_case "prometheus/json consistency" `Quick
            test_prometheus_json_consistency;
          Alcotest.test_case "gain.removes = fm.moves" `Quick
            test_gain_removes_equals_fm_moves;
        ] );
      ( "events",
        [
          Alcotest.test_case "jsonl round-trip + context merge" `Quick
            test_event_log_roundtrip;
          Alcotest.test_case "bounded with counted drops" `Quick
            test_event_log_bounded;
          Alcotest.test_case "unterminated tail repaired" `Quick
            test_event_log_tail_repair;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "unbalanced detection" `Quick
            test_unbalanced_detection;
          Alcotest.test_case "args + exception safety" `Quick
            test_span_args_and_exception_safety;
          Alcotest.test_case "spans across domains" `Quick
            test_spans_across_domains;
          Alcotest.test_case "request context" `Quick test_with_context;
          Alcotest.test_case "context exception safety" `Quick
            test_context_exception_safety;
          Alcotest.test_case "phase summary" `Quick test_phase_summary;
        ] );
      ( "cli",
        [
          Alcotest.test_case "--trace/--metrics JSON" `Quick test_cli_trace_json;
          Alcotest.test_case "--metrics CSV export" `Quick test_cli_metrics_csv;
          Alcotest.test_case "--events JSONL" `Quick test_cli_events_jsonl;
        ] );
    ]
