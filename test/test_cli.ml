(* Integration tests: drive the hypart executable end-to-end through a
   temp directory — generate, partition, evaluate, kway, tables. *)

module Json_in = Hypart_telemetry.Json_in

let exe =
  (* test binaries run in _build/default/test; the CLI is a sibling *)
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/hypart.exe"

let tmpdir = Filename.get_temp_dir_name ()

let run_cmd args =
  let out = Filename.concat tmpdir "hypart_cli_out.txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  (code, contents)

(* a command's exit code, stdout and stderr, apart *)
let run_split args =
  let file name = Filename.concat tmpdir name in
  let out = file "hypart_cli_stdout.txt" and err = file "hypart_cli_stderr.txt" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args (Filename.quote out)
         (Filename.quote err))
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  (code, read out, read err)

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
  scan 0

let check_ok name (code, out) needles =
  Alcotest.(check int) (name ^ " exit code") 0 code;
  List.iter
    (fun needle ->
      if not (contains out needle) then
        Alcotest.failf "%s: expected %S in output:\n%s" name needle out)
    needles

let base = Filename.concat tmpdir "hypart_cli_ibm01"

let test_generate () =
  check_ok "generate"
    (run_cmd (Printf.sprintf "generate ibm01 --scale 64 -o %s" (Filename.quote base)))
    [ "hypergraph:"; "wrote" ];
  Alcotest.(check bool) "hgr exists" true (Sys.file_exists (base ^ ".hgr"));
  Alcotest.(check bool) "are exists" true (Sys.file_exists (base ^ ".are"))

let test_partition_name () =
  check_ok "partition by name"
    (run_cmd "partition ibm01 --scale 64 --engine flat --starts 2")
    [ "best cut:"; "legal"; "per-start cuts:" ]

(* the seeded multistart answers the same at every --domains: start i
   runs from seed 5+i wherever it runs, and the winner is picked the
   same way *)
let test_partition_domains_agree () =
  let answer args =
    let code, out = run_cmd ("partition ibm01 --scale 8 --seed 5 --starts 4" ^ args) in
    Alcotest.(check int) (args ^ " exit code") 0 code;
    String.split_on_char '\n' out
    |> List.filter (fun l ->
           String.starts_with ~prefix:"best cut:" l
           || String.starts_with ~prefix:"per-start cuts:" l)
  in
  let reference = answer "" in
  Alcotest.(check int) "both lines printed" 2 (List.length reference);
  List.iter
    (fun d ->
      Alcotest.(check (list string)) ("same answer at" ^ d) reference (answer d))
    [ " --domains 1"; " --domains 2" ]

let test_partition_file () =
  check_ok "partition .hgr file"
    (run_cmd (Printf.sprintf "partition %s.hgr --engine mlclip" base))
    [ "best cut:" ]

let test_kway_and_evaluate () =
  let part = Filename.concat tmpdir "hypart_cli.part" in
  check_ok "kway"
    (run_cmd
       (Printf.sprintf "kway %s.hgr -k 3 -o %s" base (Filename.quote part)))
    [ "3-way cut"; "part weights:" ];
  check_ok "evaluate k-way"
    (run_cmd (Printf.sprintf "evaluate %s.hgr %s" base (Filename.quote part)))
    [ "3-way cut:" ]

let test_table_csv () =
  let code, out =
    run_cmd "table2 --scale 64 --runs 2 --instances ibm01 --csv"
  in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "csv header" true
    (contains out "Tolerance,Algorithm,ibm01")

(* a study is a store-backed campaign: a rerun against its store runs
   no engine and prints the same table, and [lab report] over the store
   prints it too *)
let study_rerun name needles () =
  let store = Filename.concat tmpdir ("hypart_cli_store_" ^ name) in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote store)));
  let flags = Printf.sprintf "--scale 64 --runs 2 --store %s" (Filename.quote store) in
  let run () = run_split (Printf.sprintf "%s %s" name flags) in
  let code1, out1, _ = run () in
  let code2, out2, err2 = run () in
  let code3, report, _ = run_split (Printf.sprintf "lab report --campaign %s %s" name flags) in
  Alcotest.(check (list int)) "exit codes" [ 0; 0; 0 ] [ code1; code2; code3 ];
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " printed") true (contains out1 needle))
    needles;
  Alcotest.(check string) "rerun prints the same table" out1 out2;
  Alcotest.(check bool) "rerun executes nothing" true (contains err2 "0 executed");
  Alcotest.(check string) "lab report prints the same table" out1 report

let test_corking_rerun = study_rerun "corking" [ "Our CLIP (corking fix)" ]
let test_fixed_rerun = study_rerun "fixed" [ "fixed %"; "stddev" ]

(* every catalog view renders over a store holding none of its runs *)
let test_report_empty_store () =
  let store = Filename.concat tmpdir "hypart_cli_empty_store" in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote store)));
  List.iter
    (fun name ->
      let code, _, err =
        run_split
          (Printf.sprintf "lab report --campaign %s --scale 64 --runs 2 --store %s" name
             (Filename.quote store))
      in
      if code <> 0 then Alcotest.failf "lab report --campaign %s: exit %d\n%s" name code err)
    Hypart_harness.Campaigns.names;
  Alcotest.(check bool) "no store created" false (Sys.file_exists store)

let test_unknown_engine_fails () =
  let code, _ = run_cmd "partition ibm01 --scale 64 --engine bogus" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0)

(* README's [hypart engines] block is the command's output, verbatim *)
let test_readme_engines () =
  let readme =
    In_channel.with_open_bin
      (Filename.concat (Filename.dirname Sys.executable_name) "../README.md")
      In_channel.input_all
  in
  let rec find needle i =
    if i + String.length needle > String.length readme then
      Alcotest.failf "README has no %S" needle
    else if String.sub readme i (String.length needle) = needle then i
    else find needle (i + 1)
  in
  let opening = "`hypart engines`\nprints it:\n\n```\n" in
  let start = find opening 0 + String.length opening in
  let block = String.sub readme start (find "```\n" start - start) in
  let code, out, _ = run_split "engines" in
  Alcotest.(check int) "engines exit code" 0 code;
  Alcotest.(check string) "README block = hypart engines" out block

let test_help () =
  check_ok "help" (run_cmd "--help=plain") [ "table1"; "partition"; "pareto" ]

(* argument validation: a bad value is a one-line parse error, never a
   crash minutes into an experiment *)
let check_rejected name args needle =
  let code, out = run_cmd args in
  Alcotest.(check bool) (name ^ " nonzero exit") true (code <> 0);
  (* cmdliner wraps a long message onto indented lines *)
  let unwrapped = String.concat " " (List.map String.trim (String.split_on_char '\n' out)) in
  if not (contains unwrapped needle) then
    Alcotest.failf "%s: expected %S in output:\n%s" name needle out;
  (* one error report, never a crash dump *)
  let reports =
    List.filter
      (fun l -> String.starts_with ~prefix:"hypart:" l)
      (String.split_on_char '\n' out)
  in
  Alcotest.(check int) (name ^ " one error line\n" ^ out) 1 (List.length reports);
  if contains out "internal error" || contains out "exception" then
    Alcotest.failf "%s: raw exception:\n%s" name out

let test_validation () =
  check_rejected "runs = 0" "table1 --scale 64 --runs 0" "positive";
  check_rejected "negative runs" "table1 --scale 64 --runs=-3" "positive";
  check_rejected "runs not a number" "table1 --scale 64 --runs x" "positive";
  check_rejected "scale = 0" "table1 --scale 0" "positive";
  check_rejected "starts = 0" "partition ibm01 --scale 64 --starts 0" "positive";
  check_rejected "bad metrics dir"
    "table1 --scale 64 --runs 1 --metrics /hypart_no_such_dir/m.json"
    "does not exist";
  check_rejected "bad trace dir"
    "table1 --scale 64 --runs 1 --trace /hypart_no_such_dir/t.json"
    "does not exist";
  check_rejected "unknown campaign" "lab run --campaign bogus" "unknown campaign";
  (* every tolerance flag accepts exactly Balance's range, [0, 1) *)
  check_rejected "tol nan" "partition ibm01 --scale 64 --tol nan" "tolerance";
  check_rejected "negative tol" "partition ibm01 --scale 64 --tol=-1" "tolerance";
  check_rejected "tol 1" "partition ibm01 --scale 64 --tol 1" "tolerance";
  check_rejected "tables45 tol nan" "tables45 --scale 64 --tol nan" "tolerance";
  check_rejected "k = 0" "kway ibm01 --scale 64 -k 0" "positive";
  check_rejected "unknown kway engine" "kway ibm01 --scale 64 --engine bogus"
    "invalid value 'bogus'";
  check_rejected "kway --output is gone" "kway ibm01 --scale 64 --output x.part"
    "unknown option";
  check_rejected "unknown suite instance" "bsf --scale 64 --instance ibm99"
    "unknown instance ibm99";
  check_rejected "unknown suite in a list"
    "tables45 --scale 64 --instances ibm01,nope" "unknown instance nope";
  check_rejected "configs = 0" "tables45 --scale 64 --configs 1,0" "positive";
  check_rejected "fraction > 1" "delta-gen ibm01 --scale 64 --fraction 2" "(0, 1]";
  check_rejected "fallback fraction nan"
    "eco ibm01 a.part b.hgrd --fallback-fraction nan" "[0, 1]"

(* a missing or malformed instance file ends every command that loads
   one with a single located line and exit 1, never an uncaught
   exception *)
let test_bad_instance () =
  let file name content =
    let path = Filename.concat tmpdir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc content);
    path
  in
  let check name args expected =
    let code, out = run_cmd args in
    Alcotest.(check int) (name ^ " exit code\n" ^ out) 1 code;
    if not (contains out ("hypart: " ^ expected)) then
      Alcotest.failf "%s: expected %S in output:\n%s" name expected out;
    if contains out "exception" then Alcotest.failf "%s: raw exception:\n%s" name out
  in
  let bad = file "hypart_cli_bad.hgr" "2 4\n1 2\nbogus\n" in
  let located = bad ^ ":3: expected integer" in
  let part = file "hypart_cli_bad.part" "0\n1\n" in
  let delta = file "hypart_cli_bad.hgrd" "HGRD 1\n" in
  List.iter
    (fun (cmd, args) -> check cmd (Printf.sprintf "%s %s" cmd args) located)
    [
      ("partition", bad);
      ("pack", bad);
      ("evaluate", bad ^ " " ^ part);
      ("kway", bad);
      ("place", bad);
      ("evolve", bad);
      ("delta-gen", bad);
      ("eco", String.concat " " [ bad; part; delta ]);
    ];
  let missing = Filename.concat tmpdir "hypart_cli_no_such.hgr" in
  check "missing .hgr" ("partition " ^ missing) (missing ^ ": No such file");
  check "unknown instance name" "partition nosuch" "unknown instance nosuch";
  let no_delta = Filename.concat tmpdir "hypart_cli_no_such.hgrd" in
  check "missing .hgrd"
    (Printf.sprintf "eco ibm01 %s %s --scale 64" part no_delta)
    (no_delta ^ ": No such file");
  let packed = file "hypart_cli_bad.hgrb" "HGRB not a packed instance" in
  check "corrupt .hgrb" ("partition " ^ packed) (packed ^ ": truncated header");
  let nodes =
    file "hypart_cli_lonely.nodes" "UCLA nodes 1.0\nNumNodes : 0\nNumTerminals : 0\n"
  in
  let nets = Filename.concat tmpdir "hypart_cli_lonely.nets" in
  (try Sys.remove nets with Sys_error _ -> ());
  check "missing .nets" ("partition " ^ nodes) (nets ^ ": No such file")

(* lab round trip through the CLI: run, 100% cached re-run, resume
   after truncation with a byte-identical report, gc *)
let test_lab_cli () =
  let store = Filename.concat tmpdir "hypart_cli_lab_store" in
  let jsonl = Filename.concat store "runs.jsonl" in
  let args rest =
    Printf.sprintf "lab %s --campaign smoke --scale 64 --runs 2 --seed 3 --store %s"
      rest (Filename.quote store)
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote store)));
  let code, _ = run_cmd "lab resume" in
  Alcotest.(check bool) "resume without store fails" true (code <> 0);
  check_ok "lab run" (run_cmd (args "run")) [ "2 jobs"; "2 executed" ];
  check_ok "lab rerun all cached" (run_cmd (args "run"))
    [ "2 cached"; "0 executed" ];
  let report out = args (Printf.sprintf "report -o %s" (Filename.quote out)) in
  let full = Filename.concat tmpdir "hypart_cli_lab_full.md" in
  let resumed = Filename.concat tmpdir "hypart_cli_lab_resumed.md" in
  check_ok "lab report" (run_cmd (report full)) [ "wrote" ];
  (* truncate the store to its first record and resume *)
  let ic = open_in jsonl in
  let first = input_line ic in
  close_in ic;
  let oc = open_out jsonl in
  output_string oc (first ^ "\n");
  close_out oc;
  check_ok "lab resume" (run_cmd (args "resume")) [ "1 cached"; "1 executed" ];
  check_ok "lab report after resume" (run_cmd (report resumed)) [ "wrote" ];
  let slurp path =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Alcotest.(check string) "resumed report byte-identical" (slurp full)
    (slurp resumed);
  check_ok "lab gc"
    (run_cmd (Printf.sprintf "lab gc --store %s" (Filename.quote store)))
    [ "kept 2" ]

(* bsf, pareto and ranking are views over one experiment's stored
   starts: pareto runs nothing bsf stored, ranking runs only the
   instance bsf did not, and a warm rerun prints the same output *)
let test_figures_share_runs () =
  let store = Filename.concat tmpdir "hypart_cli_figures_store" in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote store)));
  let args cmd = Printf.sprintf "%s --scale 64 --starts 3 --store %s" cmd (Filename.quote store) in
  check_ok "bsf" (run_cmd (args "bsf --instance ibm01")) [ "bsf: 12 jobs, 0 cached, 12 executed" ];
  let pareto = run_cmd (args "pareto --instance ibm01") in
  check_ok "pareto on bsf's runs" pareto [ "pareto: 12 jobs, 12 cached, 0 executed"; "*" ];
  Alcotest.(check string) "pareto rerun identical" (snd pareto)
    (snd (run_cmd (args "pareto --instance ibm01")));
  check_ok "ranking runs ibm02 only"
    (run_cmd (args "ranking --instances ibm01,ibm02"))
    [ "ranking: 24 jobs, 12 cached, 12 executed"; "ibm02" ]

(* bench-diff: the regression gate compares bench.* gauges between two
   metric snapshots and exits nonzero on regression *)
let test_bench_diff () =
  let write path gauges =
    let oc = open_out path in
    output_string oc
      (Printf.sprintf "{\"gauges\":{%s}}"
         (String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%S:%g" k v) gauges)));
    close_out oc
  in
  let old_path = Filename.concat tmpdir "hypart_cli_bench_old.json" in
  let ok_path = Filename.concat tmpdir "hypart_cli_bench_ok.json" in
  let bad_path = Filename.concat tmpdir "hypart_cli_bench_bad.json" in
  write old_path
    [
      ("bench.normalization_factor", 1.0);
      ("bench.fm_pass", 1000.0);
      ("bench.gain_update", 200.0);
    ];
  (* +8% and -5%: inside the 15% tolerance *)
  write ok_path
    [
      ("bench.normalization_factor", 1.0);
      ("bench.fm_pass", 1080.0);
      ("bench.gain_update", 190.0);
    ];
  (* +30%: a regression *)
  write bad_path
    [
      ("bench.normalization_factor", 1.0);
      ("bench.fm_pass", 1300.0);
      ("bench.gain_update", 200.0);
    ];
  check_ok "bench-diff within tolerance"
    (run_cmd
       (Printf.sprintf "bench-diff %s %s --tolerance 0.15"
          (Filename.quote old_path) (Filename.quote ok_path)))
    [ "no regressions (2 compared)"; "bench.fm_pass"; "ok" ];
  let code, out =
    run_cmd
      (Printf.sprintf "bench-diff %s %s --tolerance 0.15"
         (Filename.quote old_path) (Filename.quote bad_path))
  in
  Alcotest.(check int) "regression exits 1" 1 code;
  Alcotest.(check bool) "regression flagged" true (contains out "REGRESSION");
  Alcotest.(check bool) "regression named" true
    (contains out "bench.fm_pass: +30.0%");
  (* a machine twice as fast (factor 0.5) makes the same raw +30% pass *)
  write bad_path
    [
      ("bench.normalization_factor", 0.5);
      ("bench.fm_pass", 1300.0);
      ("bench.gain_update", 200.0);
    ];
  let code, _ =
    run_cmd
      (Printf.sprintf "bench-diff %s %s --tolerance 0.15"
         (Filename.quote old_path) (Filename.quote bad_path))
  in
  Alcotest.(check int) "normalized away" 0 code;
  let code, _ = run_cmd "bench-diff /no/such/old.json /no/such/new.json" in
  Alcotest.(check bool) "missing file is an error" true (code <> 0)

(* the ISSUE acceptance test: a real `hypart serve` process, a real
   `hypart submit`, and the daemon-side trace/event files must carry
   the client-observed request id on engine spans *)
let test_daemon_round_trip () =
  let trace = Filename.concat tmpdir "hypart_cli_daemon_trace.json" in
  let events = Filename.concat tmpdir "hypart_cli_daemon_events.jsonl" in
  let serve_out = Filename.concat tmpdir "hypart_cli_daemon_serve.txt" in
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ trace; events; serve_out ];
  let out_fd =
    Unix.openfile serve_out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--port"; "0"; "--workers"; "2"; "--trace"; trace;
        "--events"; events;
      |]
      Unix.stdin out_fd out_fd
  in
  Unix.close out_fd;
  let body () =
    (* wait for the listening banner and parse the ephemeral port *)
    let deadline = Unix.gettimeofday () +. 15.0 in
    let port = ref 0 in
    while !port = 0 && Unix.gettimeofday () < deadline do
      (try
         let ic = open_in serve_out in
         (try
            Scanf.sscanf (input_line ic) "hypart daemon listening on %s@:%d"
              (fun _ p -> port := p)
          with Scanf.Scan_failure _ | End_of_file | Failure _ -> ());
         close_in ic
       with Sys_error _ -> ());
      if !port = 0 then Unix.sleepf 0.05
    done;
    if !port = 0 then Alcotest.fail "daemon never announced its port";
    let port = !port in
    let code, out =
      run_cmd
        (Printf.sprintf "submit ibm01 --scale 64 --engine flat --port %d" port)
    in
    Alcotest.(check int) "submit exit" 0 code;
    Alcotest.(check bool) "submit printed a cut" true (contains out "best cut:");
    (* the daemon's partition file is the offline one, byte for byte *)
    let offline = Filename.concat tmpdir "hypart_cli_offline.part" in
    let served = Filename.concat tmpdir "hypart_cli_served.part" in
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ offline; served ];
    check_ok "partition -o"
      (run_cmd
         (Printf.sprintf "partition ibm01 --scale 64 --engine mlclip --seed 5 -o %s"
            (Filename.quote offline)))
      [ "wrote" ];
    check_ok "submit -o"
      (run_cmd
         (Printf.sprintf
            "submit ibm01 --scale 64 --engine mlclip --seed 5 --port %d -o %s" port
            (Filename.quote served)))
      [ "partition written to" ];
    let read f = In_channel.with_open_bin f In_channel.input_all in
    Alcotest.(check string) "submit -o = partition -o" (read offline) (read served);
    (* a Bookshelf pair whose .nodes file lacks a trailing newline *)
    let shelf = Filename.concat tmpdir "hypart_cli_shelf" in
    Netlists.write_bookshelf ~basename:shelf
      (Hypart_generator.Ibm_suite.instance ~scale:64.0 "ibm01");
    let nodes = shelf ^ ".nodes" in
    let text = In_channel.with_open_bin nodes In_channel.input_all in
    Out_channel.with_open_bin nodes (fun oc ->
        output_string oc (String.sub text 0 (String.length text - 1)));
    let code, shelf_out =
      run_cmd
        (Printf.sprintf "submit %s --engine flat --port %d" (Filename.quote nodes)
           port)
    in
    Alcotest.(check int) ("bookshelf submit exit\n" ^ shelf_out) 0 code;
    (* the id the client observed *)
    let rid =
      let marker = "request id: " in
      let rec find i =
        if i + String.length marker > String.length out then
          Alcotest.fail ("no request id in submit output:\n" ^ out)
        else if String.sub out i (String.length marker) = marker then
          let start = i + String.length marker in
          let stop =
            match String.index_from_opt out start '\n' with
            | Some j -> j
            | None -> String.length out
          in
          String.trim (String.sub out start (stop - start))
        else find (i + 1)
      in
      find 0
    in
    Alcotest.(check bool) "request id numeric" true
      (float_of_string_opt rid <> None);
    (* scrape the Prometheus encoding off the live daemon *)
    let prom =
      match
        Hypart_server.Client.http_request ~host:"127.0.0.1" ~port ~meth:"GET"
          ~path:"/metrics"
          ~headers:[ ("Accept", "text/plain") ]
          ()
      with
      | Ok r -> r
      | Error m -> Alcotest.fail ("metrics scrape: " ^ m)
    in
    Alcotest.(check int) "prometheus 200" 200 prom.Hypart_server.Http.status;
    let requests_total =
      String.split_on_char '\n' prom.Hypart_server.Http.resp_body
      |> List.find_map (fun line ->
             match String.index_opt line ' ' with
             | Some i when String.sub line 0 i = "server_requests_total" ->
               float_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
             | _ -> None)
    in
    (match requests_total with
    | Some v -> Alcotest.(check bool) "server_requests_total >= 1" true (v >= 1.)
    | None -> Alcotest.fail "no server_requests_total sample in scrape");
    rid
  in
  (* run the interaction, then stop the daemon either way so the trace
     and event files are flushed by its at_exit hooks *)
  let outcome = try Ok (body ()) with e -> Error e in
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  let rid = match outcome with Ok rid -> rid | Error e -> raise e in
  Alcotest.(check bool) "daemon drained cleanly (exit 0)" true
    (status = Unix.WEXITED 0);
  (* the daemon-side trace carries engine spans tagged with the
     client-observed request id *)
  let slurp path =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let trace_doc = Json_in.parse (slurp trace) in
  let span_tagged name =
    match Json_in.member "traceEvents" trace_doc with
    | Some (Json_in.Arr evs) ->
      List.exists
        (fun ev ->
          Json_in.member "name" ev = Some (Json_in.Str name)
          &&
          match Json_in.member "args" ev with
          | Some args ->
            Json_in.member "request_id" args
            = Some (Json_in.Num (float_of_string rid))
          | None -> false)
        evs
    | _ -> Alcotest.fail "trace file has no traceEvents array"
  in
  Alcotest.(check bool) "fm.pass span carries the request id" true
    (span_tagged "fm.pass");
  Alcotest.(check bool) "fm.run span carries the request id" true
    (span_tagged "fm.run");
  (* ...and the flight recorder saw the same id through its lifecycle *)
  let lifecycle =
    String.trim (slurp events) |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           let j = Json_in.parse l in
           if Json_in.member "request_id" j = Some (Json_in.Str rid) then
             match Json_in.member "event" j with
             | Some (Json_in.Str n) -> Some n
             | _ -> None
           else None)
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " recorded") true (List.mem n lifecycle))
    [ "request.admitted"; "request.started"; "request.done" ]

let () =
  Alcotest.run "cli"
    [
      ( "subcommands",
        [
          Alcotest.test_case "generate" `Quick test_generate;
          Alcotest.test_case "partition by name" `Quick test_partition_name;
          Alcotest.test_case "partition file" `Quick test_partition_file;
          Alcotest.test_case "partition at any --domains" `Quick
            test_partition_domains_agree;
          Alcotest.test_case "kway + evaluate" `Quick test_kway_and_evaluate;
          Alcotest.test_case "table csv" `Quick test_table_csv;
          Alcotest.test_case "fixed" `Quick test_fixed_rerun;
          Alcotest.test_case "corking rerun from store" `Quick test_corking_rerun;
          Alcotest.test_case "lab report on an empty store" `Quick test_report_empty_store;
          Alcotest.test_case "unknown engine" `Quick test_unknown_engine_fails;
          Alcotest.test_case "README engine list" `Quick test_readme_engines;
          Alcotest.test_case "help" `Quick test_help;
          Alcotest.test_case "argument validation" `Quick test_validation;
          Alcotest.test_case "bad instance file" `Quick test_bad_instance;
          Alcotest.test_case "lab round trip" `Quick test_lab_cli;
          Alcotest.test_case "figures share runs" `Quick test_figures_share_runs;
          Alcotest.test_case "bench-diff gate" `Quick test_bench_diff;
          Alcotest.test_case "daemon round trip" `Quick test_daemon_round_trip;
        ] );
    ]
