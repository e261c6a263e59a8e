(* The lib/lab experiment store: JSONL robustness, fingerprint
   stability, crash-safe store semantics, cache-hit accounting, and the
   orchestrator invariants the subsystem exists for — resume from a
   truncated store reproduces the uninterrupted report byte for byte,
   and re-running an unchanged campaign performs zero engine runs. *)

module Jsonl = Hypart_telemetry.Jsonl
module Fingerprint = Hypart_lab.Fingerprint
module Run_store = Hypart_lab.Run_store
module Manifest = Hypart_lab.Manifest
module Orchestrator = Hypart_lab.Orchestrator
module Report = Hypart_lab.Report
module Campaigns = Hypart_harness.Campaigns
module Fm_engines = Hypart_fm.Fm_engines
module Metrics = Hypart_telemetry.Metrics
module Control = Hypart_telemetry.Control

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hypart_lab_test_%d_%d" (Unix.getpid ()) !counter)

(* ---------------- jsonl ---------------- *)

let test_jsonl_round_trip () =
  let fields =
    [
      ("name", Jsonl.String "flat \"x\"\n");
      ("n", Jsonl.Int (-42));
      ("t", Jsonl.Float 1.5);
      ("ok", Jsonl.Bool true);
      ("max", Jsonl.Int max_int);
      ("min", Jsonl.Int min_int);
    ]
  in
  match Jsonl.of_line (Jsonl.to_line fields) with
  | None -> Alcotest.fail "round trip failed to parse"
  | Some got ->
    Alcotest.(check (option string)) "string" (Some "flat \"x\"\n")
      (Jsonl.string_member "name" got);
    Alcotest.(check (option int)) "int" (Some (-42)) (Jsonl.int_member "n" got);
    Alcotest.(check (option (float 1e-9))) "float" (Some 1.5)
      (Jsonl.float_member "t" got);
    Alcotest.(check (option bool)) "bool" (Some true)
      (Jsonl.bool_member "ok" got);
    Alcotest.(check (option int)) "absent member" None
      (Jsonl.int_member "missing" got);
    (* ints never pass through a float: 62-bit seeds survive *)
    Alcotest.(check (option int)) "max_int" (Some max_int)
      (Jsonl.int_member "max" got);
    Alcotest.(check (option int)) "min_int" (Some min_int)
      (Jsonl.int_member "min" got)

let test_jsonl_malformed () =
  let bad =
    [
      "";
      "{";
      "{\"a\":";
      "{\"a\":1";
      "{\"a\":1}garbage";
      "{\"a\":[1,2]}";
      "{\"a\":{\"b\":1}}";
      "{\"a\":\"unterminated";
      "not json at all";
      "{\"a\"1}";
    ]
  in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" line)
        true
        (Jsonl.of_line line = None))
    bad

let test_jsonl_truncated_record () =
  let line =
    Jsonl.to_line [ ("engine", Jsonl.String "flat"); ("cut", Jsonl.Int 70) ]
  in
  (* every strict prefix of a valid line is malformed, never a crash *)
  for len = 0 to String.length line - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "prefix of length %d rejected" len)
      true
      (Jsonl.of_line (String.sub line 0 len) = None)
  done

(* arbitrary bytes, and valid lines with one byte overwritten *)
let arb_line =
  let valid =
    Jsonl.to_line
      [
        ("engine", Jsonl.String "fl\"at\n\001");
        ("seed", Jsonl.Int max_int);
        ("seconds", Jsonl.Float 0.25);
        ("legal", Jsonl.Bool false);
      ]
  in
  let flip (i, c) =
    let b = Bytes.of_string valid in
    Bytes.set b (i mod Bytes.length b) c;
    Bytes.to_string b
  in
  QCheck.(
    make ~print:(Printf.sprintf "%S")
      Gen.(oneof [ string; map flip (pair nat char) ]))

let prop_of_line_total =
  QCheck.Test.make ~name:"of_line is total on arbitrary bytes" ~count:1000
    ~long_factor:100 arb_line (fun line ->
      match Jsonl.of_line line with
      | Some _ | None -> true
      | exception e -> QCheck.Test.fail_reportf "%s escaped" (Printexc.to_string e))

(* ---------------- fingerprints ---------------- *)

let test_fingerprint_stable () =
  (* golden values: the whole point of FNV-1a over Hashtbl.hash is that
     these never change across OCaml versions or machines *)
  Alcotest.(check string) "empty string" "cbf29ce484222325"
    (Fingerprint.of_string "");
  Alcotest.(check string) "known string" "af63dc4c8601ec8c"
    (Fingerprint.of_string "a")

let test_fingerprint_pairs_order_independent () =
  let a = Fingerprint.of_pairs [ ("scale", "8"); ("tol", "0.1") ] in
  let b = Fingerprint.of_pairs [ ("tol", "0.1"); ("scale", "8") ] in
  Alcotest.(check string) "order independent" a b;
  let c = Fingerprint.of_pairs [ ("scale", "8"); ("tol", "0.2") ] in
  Alcotest.(check bool) "value sensitive" true (a <> c);
  (* length prefixes: ("ab","c") must differ from ("a","bc") *)
  let d = Fingerprint.of_pairs [ ("ab", "c") ] in
  let e = Fingerprint.of_pairs [ ("a", "bc") ] in
  Alcotest.(check bool) "no concatenation collision" true (d <> e)

let test_fingerprint_instance () =
  let h1 = Hypart_generator.Ibm_suite.instance ~scale:64.0 "ibm01" in
  let h2 = Hypart_generator.Ibm_suite.instance ~scale:64.0 "ibm01" in
  let h3 = Hypart_generator.Ibm_suite.instance ~scale:32.0 "ibm01" in
  Alcotest.(check string) "same instance, same fp"
    (Fingerprint.of_instance h1) (Fingerprint.of_instance h2);
  Alcotest.(check bool) "different scale, different fp" true
    (Fingerprint.of_instance h1 <> Fingerprint.of_instance h3)

let test_mix_seed () =
  let a = Fingerprint.mix_seed ~base:7 [ "exp"; "flat"; "ibm01"; "0" ] in
  let b = Fingerprint.mix_seed ~base:7 [ "exp"; "flat"; "ibm01"; "0" ] in
  let c = Fingerprint.mix_seed ~base:7 [ "exp"; "flat"; "ibm01"; "1" ] in
  let d = Fingerprint.mix_seed ~base:8 [ "exp"; "flat"; "ibm01"; "0" ] in
  Alcotest.(check int) "deterministic" a b;
  Alcotest.(check bool) "run-index sensitive" true (a <> c);
  Alcotest.(check bool) "base sensitive" true (a <> d);
  Alcotest.(check bool) "non-negative" true (a >= 0 && c >= 0 && d >= 0)

(* ---------------- run store ---------------- *)

(* the content address of a record, as the store indexes it *)
let record_key (r : Run_store.record) =
  Run_store.key ~engine:r.Run_store.engine ~config:r.Run_store.config
    ~instance:r.Run_store.instance ~seed:r.Run_store.seed

let sample_record ?(seed = 1) ?(cut = 70) ?(stats = []) () =
  {
    Run_store.engine = "flat";
    config = "cfg0123456789abc";
    instance = "ins0123456789abc";
    seed;
    cut;
    legal = true;
    seconds = 0.25;
    machine_factor = 1.0;
    git = "deadbee";
    stats;
  }

(* the raw file: every intact record in file order, duplicate keys
   included, plus the count of malformed lines *)
let read_store dir =
  let records, dropped =
    Jsonl.fold (Run_store.filename dir)
      (fun (records, dropped) line ->
        match Run_store.record_of_line line with
        | Some r -> (r :: records, dropped)
        | None -> (records, dropped + 1))
      ([], 0)
  in
  (List.rev records, dropped)

(* fixtures with exact or duplicate fields bypass [Run_store.record],
   which stamps git and machine itself and refuses a known key *)
let write_fixture dir records =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644
    (Run_store.filename dir) (fun oc ->
      List.iter
        (fun r -> output_string oc (Run_store.record_to_line r ^ "\n"))
        records)

let record store (r : Run_store.record) =
  Run_store.record store ~engine:r.Run_store.engine ~config:r.Run_store.config
    ~instance:r.Run_store.instance ~seed:r.Run_store.seed ~cut:r.Run_store.cut
    ~legal:r.Run_store.legal ~seconds:r.Run_store.seconds ~stats:r.Run_store.stats

let test_store_append_load () =
  let dir = tmp_dir () in
  let store = Run_store.open_store dir in
  ignore (record store (sample_record ~seed:1 ~cut:70 ()));
  ignore (record store (sample_record ~seed:2 ~cut:72 ()));
  Run_store.close store;
  let records, dropped = read_store dir in
  Alcotest.(check int) "two records" 2 (List.length records);
  Alcotest.(check int) "nothing dropped" 0 dropped;
  let r = List.hd records in
  Alcotest.(check string) "engine survives" "flat" r.Run_store.engine;
  Alcotest.(check int) "cut survives" 70 r.Run_store.cut;
  Alcotest.(check bool) "legal survives" true r.Run_store.legal;
  Alcotest.(check string) "git stamped" (Hypart_lab.Provenance.git_describe ())
    r.Run_store.git;
  let loaded = Run_store.load dir in
  Alcotest.(check int) "load indexes both" 2 (Run_store.size loaded);
  Alcotest.(check (option int)) "load finds the cut" (Some 72)
    (Option.map
       (fun r -> r.Run_store.cut)
       (Run_store.find loaded
          ~key:(record_key (sample_record ~seed:2 ()))))

let test_store_duplicate_record () =
  let dir = tmp_dir () in
  let store = Run_store.open_store dir in
  let first = record store (sample_record ~seed:1 ~cut:70 ()) in
  let again = record store (sample_record ~seed:1 ~cut:99 ()) in
  Run_store.close store;
  Alcotest.(check int) "second record returns the first" first.Run_store.cut
    again.Run_store.cut;
  let records, _ = read_store dir in
  Alcotest.(check int) "one line" 1 (List.length records);
  (* the same holds across handles: a reopened store knows the key *)
  let store = Run_store.open_store dir in
  ignore (record store (sample_record ~seed:1 ~cut:99 ()));
  Run_store.close store;
  Alcotest.(check int) "still one line" 1 (List.length (fst (read_store dir)))

let test_store_load_read_only () =
  let dir = tmp_dir () in
  let store = Run_store.load dir in
  Alcotest.(check int) "absent store is empty" 0 (Run_store.size store);
  ignore (record store (sample_record ()));
  Run_store.close store;
  Alcotest.(check int) "indexed in memory" 1 (Run_store.size store);
  Alcotest.(check bool) "nothing created" false (Sys.file_exists dir)

let test_store_truncated_tail () =
  let dir = tmp_dir () in
  write_fixture dir [ sample_record ~seed:1 (); sample_record ~seed:2 () ];
  (* simulate a crash mid-write: chop the last 10 bytes *)
  let path = Run_store.filename dir in
  let len = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (len - 10);
  Unix.close fd;
  let records, dropped = read_store dir in
  Alcotest.(check int) "intact record kept" 1 (List.length records);
  Alcotest.(check int) "truncated record dropped" 1 dropped;
  (* the store stays appendable after the crash *)
  let store = Run_store.open_store dir in
  Alcotest.(check int) "open counts the torn line" 1 (Run_store.dropped store);
  ignore (record store (sample_record ~seed:3 ()));
  Run_store.close store;
  let records, _ = read_store dir in
  Alcotest.(check int) "append after crash" 2 (List.length records)

let test_store_compact () =
  let dir = tmp_dir () in
  write_fixture dir
    [
      sample_record ~seed:1 ~cut:70 ();
      sample_record ~seed:1 ~cut:99 ();
      (* duplicate key *)
      sample_record ~seed:2 ~cut:72 ();
    ];
  let oc =
    open_out_gen [ Open_append ] 0o644 (Run_store.filename dir)
  in
  output_string oc "{broken\n";
  close_out oc;
  let kept, dropped = Run_store.compact dir in
  Alcotest.(check int) "kept distinct keys" 2 kept;
  Alcotest.(check int) "dropped dup + malformed" 2 dropped;
  let records, d = read_store dir in
  Alcotest.(check int) "clean after compact" 0 d;
  let first =
    List.find (fun r -> r.Run_store.seed = 1) records
  in
  Alcotest.(check int) "first occurrence wins" 70 first.Run_store.cut

let test_record_line_round_trip () =
  let r = sample_record () in
  match Run_store.record_of_line (Run_store.record_to_line r) with
  | None -> Alcotest.fail "record line failed to parse"
  | Some got ->
    Alcotest.(check string) "key preserved" (record_key r)
      (record_key got)

(* A crash can cut the store at any byte.  Whatever the cut, reopening
   and appending must keep every record that was complete before it,
   keep the new one intact, and drop at most the one cut line. *)
let arb_records =
  let record =
    QCheck.Gen.(
      map
        (fun (seed, cut, legal, git) ->
          { (sample_record ~seed ~cut ()) with Run_store.legal; git })
        (quad int small_nat bool (string_size ~gen:printable (int_bound 6))))
  in
  QCheck.(
    make
      ~print:(fun rs -> String.concat "\n" (List.map Run_store.record_to_line rs))
      Gen.(list_size (int_range 1 3) record))

let prop_store_truncation =
  QCheck.Test.make ~name:"store survives truncation at every byte" ~count:10
    ~long_factor:10 arb_records (fun records ->
      let dir = tmp_dir () in
      write_fixture dir records;
      let path = Run_store.filename dir in
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let lines rs = List.map Run_store.record_to_line rs in
      for cut = 0 to String.length bytes do
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (String.sub bytes 0 cut));
        (* a record is complete once its closing brace is on disk *)
        let complete, _ =
          List.fold_left
            (fun (kept, stop) r ->
              let stop = stop + String.length (Run_store.record_to_line r) in
              ((if stop <= cut then r :: kept else kept), stop + 1))
            ([], 0) records
        in
        let store = Run_store.open_store dir in
        let fresh = record store (sample_record ~seed:(-1) ~cut:1 ()) in
        Run_store.close store;
        let got, dropped = read_store dir in
        if lines got <> lines (List.rev (fresh :: complete)) || dropped > 1 then
          QCheck.Test.fail_reportf "cut at byte %d: %d records back, %d dropped"
            cut (List.length got) dropped
      done;
      Sys.remove path;
      Sys.rmdir dir;
      true)

(* ---------------- cache ---------------- *)

let test_cache_counters () =
  let dir = tmp_dir () in
  let r = sample_record () in
  write_fixture dir [ r ];
  let cache = Run_store.load dir in
  Alcotest.(check int) "one key" 1 (Run_store.size cache);
  Control.with_enabled (fun () ->
      Metrics.reset ();
      ignore (Run_store.find cache ~key:(record_key r));
      ignore (Run_store.find cache ~key:"missing/key/x/1");
      ignore (Run_store.find ~quiet:true cache ~key:"missing/key/x/2");
      Alcotest.(check int) "one hit" 1 (Metrics.counter_value "lab.cache_hits");
      Alcotest.(check int) "one miss" 1
        (Metrics.counter_value "lab.cache_misses");
      Metrics.reset ())

(* ---------------- orchestrator + report ---------------- *)

(* a custom 2-cell manifest at scale 64 keeps the engine runs trivial *)
let tiny_manifest seed =
  Manifest.make ~name:"test" ~seed
    ~experiments:
      [
        Manifest.experiment ~tolerance:0.1 ~scale:64.0 ~runs:2 "t"
          [ Fm_engines.flat; Fm_engines.clip ] [ "ibm01" ];
      ]

(* the orchestrator over a store directory, as [hypart lab run] drives it *)
let run_campaign ?domains dir manifest =
  let store = Run_store.open_store dir in
  Fun.protect
    ~finally:(fun () -> Run_store.close store)
    (fun () -> Orchestrator.run ?domains ~store ~manifest ())

(* a catalog campaign over a store directory, as [hypart lab run] drives it *)
let run_catalog ?domains dir campaign =
  Run_store.with_store (Some dir) (Campaigns.run ?domains campaign)

let report dir manifest = Report.generate (Report.create (Run_store.load dir) manifest)

let test_manifest_validation () =
  let bad ?(protocols = [ Manifest.Single_start ]) runs scale =
    try
      ignore
        (Manifest.make ~name:"x" ~seed:1
           ~experiments:
             [ Manifest.experiment ~protocols ~scale ~runs "t" [ Fm_engines.flat ] [ "ibm01" ] ]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "runs = 0 rejected" true (bad 0 64.0);
  Alcotest.(check bool) "negative scale rejected" true (bad 2 (-1.0));
  Alcotest.(check bool) "no protocol rejected" true (bad ~protocols:[] 2 64.0);
  Alcotest.(check bool) "zero starts rejected" true
    (bad ~protocols:[ Manifest.Multistart 0 ] 2 64.0);
  Alcotest.(check bool) "valid accepted" false (bad 2 64.0);
  Alcotest.(check bool) "unknown campaign rejected" true
    (try
       ignore (Campaigns.campaign ~seed:1 "bogus");
       false
     with Invalid_argument _ -> true)

let test_jobs_deterministic () =
  let m = tiny_manifest 3 in
  let jobs = Manifest.jobs m in
  Alcotest.(check int) "2 cells x 2 runs" 4 (List.length jobs);
  let seeds = List.map (fun j -> j.Manifest.job_seed) jobs in
  Alcotest.(check (list int)) "expansion deterministic" seeds
    (List.map (fun j -> j.Manifest.job_seed) (Manifest.jobs m));
  let distinct = List.sort_uniq compare seeds in
  Alcotest.(check int) "job seeds distinct" 4 (List.length distinct)

let test_campaign_fresh_then_cached () =
  let dir = tmp_dir () in
  let manifest = tiny_manifest 3 in
  let o1 = run_campaign ~domains:2 dir manifest in
  Alcotest.(check int) "fresh: all executed" o1.Orchestrator.jobs
    o1.Orchestrator.executed;
  Alcotest.(check int) "fresh: none cached" 0 o1.Orchestrator.cached;
  Control.with_enabled (fun () ->
      Metrics.reset ();
      let o2 = run_campaign ~domains:2 dir manifest in
      Alcotest.(check int) "rerun: zero engine runs" 0 o2.Orchestrator.executed;
      Alcotest.(check int) "rerun: all cached" o2.Orchestrator.jobs
        o2.Orchestrator.cached;
      Alcotest.(check int) "rerun: cache_hits counter" o2.Orchestrator.jobs
        (Metrics.counter_value "lab.cache_hits");
      Metrics.reset ())

let test_resume_report_byte_identical () =
  let manifest = tiny_manifest 5 in
  (* uninterrupted reference run *)
  let full_dir = tmp_dir () in
  ignore (run_campaign ~domains:1 full_dir manifest);
  let full = report full_dir manifest in
  (* interrupted run: keep only the first k lines of the store *)
  let cut_dir = tmp_dir () in
  ignore (run_campaign ~domains:1 cut_dir manifest);
  let path = Run_store.filename cut_dir in
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  let oc = open_out path in
  output_string oc (first ^ "\n");
  close_out oc;
  Control.with_enabled (fun () ->
      Metrics.reset ();
      let o = run_campaign ~domains:3 cut_dir manifest in
      Alcotest.(check int) "resume: cached = surviving runs" 1
        o.Orchestrator.cached;
      Alcotest.(check int) "resume: cache_hits = surviving runs" 1
        (Metrics.counter_value "lab.cache_hits");
      Alcotest.(check int) "resume: executed = missing runs"
        (o.Orchestrator.jobs - 1) o.Orchestrator.executed;
      Metrics.reset ());
  let resumed = report cut_dir manifest in
  Alcotest.(check string) "resumed report byte-identical" full resumed

let test_report_domain_count_invariant () =
  let manifest = tiny_manifest 9 in
  let d1 = tmp_dir () and d4 = tmp_dir () in
  ignore (run_campaign ~domains:1 d1 manifest);
  ignore (run_campaign ~domains:4 d4 manifest);
  Alcotest.(check string) "domains=1 report = domains=4 report" (report d1 manifest)
    (report d4 manifest)

let test_report_incomplete_cells () =
  let manifest = tiny_manifest 11 in
  let dir = tmp_dir () in
  (* report over an empty store renders every cell as (0/N), not an error *)
  let empty = report dir manifest in
  Alcotest.(check bool) "empty store renders" true
    (String.length empty > 0);
  (* ...and the ranking names no engine where none has a run *)
  let ranking =
    Report.ranking_table ~label:Hypart_engine.Engine.name
      (Report.create (Run_store.load dir) manifest)
      (List.hd manifest.Manifest.experiments)
  in
  match String.split_on_char '\n' (Hypart_lab.Table.to_csv ranking) with
  | _header :: rows ->
    List.iter
      (fun row ->
        match String.split_on_char ',' row with
        | _instance :: winners ->
          Alcotest.(check bool) (row ^ ": no winner") true (List.for_all (( = ) "-") winners)
        | [] -> ())
      (List.filter (( <> ) "") rows)
  | [] -> Alcotest.fail "empty ranking csv"

(* ---------------- store writers ---------------- *)

(* Every module that writes the run store, driven at tiny scale into a
   fresh store.  The digest covers the store's sorted lines with the
   timing and provenance fields masked, so it pins the keys, cuts and
   legality flags (the store bytes a change to the writers must keep);
   a second pass over the same store must run no engine and append
   nothing. *)

let store_lines dir =
  In_channel.with_open_bin (Run_store.filename dir) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let masked_digest ?(stats = true) dir =
  store_lines dir
  |> List.map (fun line ->
         match Run_store.record_of_line line with
         | None -> Alcotest.failf "malformed store line %S" line
         | Some r ->
           Run_store.record_to_line
             {
               r with
               Run_store.seconds = 0.;
               machine_factor = 0.;
               git = "";
               stats = (if stats then r.stats else []);
             })
  |> List.sort compare |> String.concat "\n" |> Fingerprint.of_string

(* [write dir] drives the writer and returns its count of executed
   runs, or [None] for writers that report none (their rerun must then
   run no FM pass at all).  [cuts] is the digest with the stats masked
   too: it pins the keys, cuts and legality alone, so a change to what
   a stat counts moves [digest] and leaves [cuts] *)
let check_writer ~lines ~digest ~cuts write () =
  let dir = tmp_dir () in
  ignore (write dir);
  let first = store_lines dir in
  Alcotest.(check int) "records" lines (List.length first);
  Alcotest.(check string) "masked digest" digest (masked_digest dir);
  Alcotest.(check string) "masked digest without stats" cuts (masked_digest ~stats:false dir);
  Control.with_enabled (fun () ->
      Metrics.reset ();
      (match write dir with
      | Some executed -> Alcotest.(check int) "rerun executes nothing" 0 executed
      | None ->
        Alcotest.(check int) "rerun runs no engine" 0
          (Metrics.counter_value "fm.runs"));
      Alcotest.(check int) "rerun misses nothing" 0
        (Metrics.counter_value "lab.cache_misses");
      Metrics.reset ());
  Alcotest.(check (list string)) "rerun appends nothing" first (store_lines dir)

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
  scan 0

(* engine stats travel as flat stat.<name> members, at the log's
   precision, and read back in order *)
let test_store_stats_round_trip () =
  let dir = tmp_dir () in
  let store = Run_store.open_store dir in
  let stats = [ ("passes", 3.); ("moves", 1234.); ("ratio", 1. /. 3.) ] in
  let recorded = record store (sample_record ~stats ()) in
  Run_store.close store;
  let line = List.hd (store_lines dir) in
  List.iter
    (fun m -> Alcotest.(check bool) (m ^ " member") true (contains line m))
    [ {|"stat.passes":3|}; {|"stat.moves":1234|}; {|"stat.ratio":0.333333|} ];
  let loaded = Run_store.find (Run_store.load dir) ~key:(record_key recorded) in
  Alcotest.(check (option (list (pair string (float 0.)))))
    "stats reload as recorded" (Some recorded.Run_store.stats)
    (Option.map (fun r -> r.Run_store.stats) loaded);
  Alcotest.(check (list string)) "names in order" [ "passes"; "moves"; "ratio" ]
    (List.map fst recorded.Run_store.stats)

(* A line written before stats were stored has no stat.* member: it
   loads with empty stats and still serves its key. *)
let test_store_stat_less_line_hit () =
  let dir = tmp_dir () in
  let campaign = Campaigns.campaign ~scale:64.0 ~runs:2 ~seed:1 "smoke" in
  ignore (run_catalog dir campaign);
  let stripped =
    List.map
      (fun line ->
        match Run_store.record_of_line line with
        | Some r ->
          Alcotest.(check bool) "recorded with stats" true (r.Run_store.stats <> []);
          Run_store.record_to_line { r with Run_store.stats = [] }
        | None -> Alcotest.failf "malformed store line %S" line)
      (store_lines dir)
  in
  Out_channel.with_open_bin (Run_store.filename dir) (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) stripped);
  Alcotest.(check bool) "no stat member left" false
    (List.exists (fun l -> contains l "stat.") (store_lines dir));
  let o = run_catalog dir campaign in
  Alcotest.(check int) "served from the store" o.Orchestrator.jobs o.Orchestrator.cached;
  Alcotest.(check int) "nothing executed" 0 o.Orchestrator.executed;
  Alcotest.(check (list string)) "nothing appended" stripped (store_lines dir)

let orchestrator_writer dir =
  let campaign = Campaigns.campaign ~scale:64.0 ~runs:3 ~seed:1 "smoke" in
  Some (run_catalog ~domains:2 dir campaign).Orchestrator.executed

(* a table command's campaign against a store directory *)
let table_writer ~name part store =
  let campaign = Campaigns.make ~name ~seed:1 [ part ] in
  Some (fst (Campaigns.execute ~store:(Some store) campaign)).Orchestrator.executed

let tables45_writer =
  table_writer ~name:"tables45"
    (Campaigns.tables45 ~scale:64.0 ~repeats:2 ~configs:[ 1; 2 ] ~instances:[ "ibm01" ]
       ~tolerance:0.1)

let compare_writer store =
  table_writer ~name:"compare"
    (Campaigns.compare ~scale:64.0 ~runs:3 ~engine_a:"flat" ~engine_b:"clip" ~instance:"ibm01")
    store

let eco_writer store_dir =
  let p =
    { (Hypart_delta.Eco_lab.params ~scale:64.0 ~steps:2 ~seed:1 ()) with
      Hypart_delta.Eco_lab.instances = [ "ibm01" ] }
  in
  Some (Run_store.with_store (Some store_dir) (Hypart_delta.Eco_lab.run p)).Orchestrator.executed

(* an unknown engine is refused before the store directory exists *)
let test_compare_unknown_engine () =
  let dir = tmp_dir () in
  Alcotest.check_raises "unknown engine"
    (Invalid_argument
       (Printf.sprintf "unknown engine %S (registered: %s)" "bogus"
          (String.concat " | " (Hypart_engine.Engine.names ()))))
    (fun () -> ignore (table_writer ~name:"compare" (Campaigns.compare ~scale:64.0 ~runs:1
           ~engine_a:"bogus" ~engine_b:"flat" ~instance:"ibm01") dir));
  Alcotest.(check bool) "no store created" false (Sys.file_exists dir)

(* an engine listed twice is one set of runs: each key runs once *)
let test_compare_same_engine () =
  let dir = tmp_dir () in
  let runs = 3 in
  let executed =
    table_writer ~name:"compare"
      (Campaigns.compare ~scale:64.0 ~runs ~engine_a:"flat" ~engine_b:"flat" ~instance:"ibm01")
      dir
  in
  Alcotest.(check (option int)) "executed once per run" (Some runs) executed;
  Alcotest.(check int) "records" runs (List.length (store_lines dir))

(* ---------------- a tiny tables campaign ---------------- *)

(* One experiment of each paper layout at scale 64: Table 1's 24
   variants, Table 3's two engines at two tolerances, and a Tables 4–5
   multistart pair. *)
let tiny_tables =
  let instances = [ "ibm01" ] in
  Manifest.make ~name:"tiny-tables" ~seed:4
    ~experiments:
      (List.concat_map Campaigns.experiments
         [
           Campaigns.table1 ~scale:64.0 ~runs:1 ~instances;
           Campaigns.table23 `Clip ~scale:64.0 ~runs:1 ~instances;
           Campaigns.tables45 ~scale:64.0 ~repeats:1 ~configs:[ 1; 2 ] ~instances ~tolerance:0.1;
         ])

let test_tables_domain_invariant () =
  let d1 = tmp_dir () and d2 = tmp_dir () in
  ignore (run_campaign ~domains:1 d1 tiny_tables);
  ignore (run_campaign ~domains:2 d2 tiny_tables);
  Alcotest.(check int) "every job stored" (List.length (Manifest.jobs tiny_tables))
    (List.length (store_lines d1));
  Alcotest.(check string) "domains=1 store = domains=2 store" (masked_digest d1)
    (masked_digest d2)

(* The resume property: the store cut after each of its
   records, resumed, renders the uninterrupted campaign's report *)
let test_tables_resume_every_boundary () =
  let full_dir = tmp_dir () in
  ignore (run_campaign ~domains:1 full_dir tiny_tables);
  let full = report full_dir tiny_tables in
  let lines = store_lines full_dir in
  List.iteri
    (fun k _ ->
      let dir = tmp_dir () in
      Sys.mkdir dir 0o755;
      Out_channel.with_open_bin (Run_store.filename dir) (fun oc ->
          List.iteri (fun i l -> if i < k then output_string oc (l ^ "\n")) lines);
      let o = run_campaign ~domains:2 dir tiny_tables in
      Alcotest.(check int) (Printf.sprintf "cut at %d: cached" k) k o.Orchestrator.cached;
      if report dir tiny_tables <> full then Alcotest.failf "cut at record %d: report differs" k)
    lines

(* the figures and the ablation: one store whatever the domain count *)
let tiny_figures =
  Manifest.make ~name:"tiny-figures" ~seed:4
    ~experiments:
      (List.concat_map Campaigns.experiments
         [
           Campaigns.figures ~scale:64.0 ~starts:2 ~instances:[ "ibm01" ] [];
           Campaigns.ablation ~scale:64.0 ~runs:1 ~instance:"ibm01";
         ])

let test_figures_domain_invariant () =
  let d1 = tmp_dir () and d2 = tmp_dir () in
  let o = run_campaign ~domains:1 d1 tiny_figures in
  ignore (run_campaign ~domains:2 d2 tiny_figures);
  Alcotest.(check int) "every key stored" o.Orchestrator.jobs (List.length (store_lines d1));
  Alcotest.(check string) "domains=1 store = domains=2 store" (masked_digest d1)
    (masked_digest d2)

(* CPU columns read each record's own normalization factor, not the
   reporting process's *)
let test_report_record_factor () =
  let e = Manifest.experiment ~scale:64.0 ~runs:1 "factor" [ Fm_engines.flat ] [ "ibm01" ] in
  let manifest = Manifest.make ~name:"factor" ~seed:1 ~experiments:[ e ] in
  let job = List.hd (Manifest.jobs manifest) in
  let dir = tmp_dir () in
  Sys.mkdir dir 0o755;
  let record =
    {
      Run_store.engine = "flat";
      config = Manifest.job_config job;
      instance = Fingerprint.of_instance (Hypart_generator.Ibm_suite.instance ~scale:64.0 "ibm01");
      seed = job.job_seed;
      cut = 50;
      legal = true;
      seconds = 0.25;
      machine_factor = 2.0;
      git = "test";
      stats = [];
    }
  in
  Out_channel.with_open_bin (Run_store.filename dir) (fun oc ->
      output_string oc (Run_store.record_to_line record ^ "\n"));
  Alcotest.(check (float 0.)) "process factor" 1.0
    (Hypart_engine.Machine.normalization_factor ());
  let report = Report.create (Run_store.load dir) manifest in
  Alcotest.(check string) "cpu: twice the stored seconds" "0.500"
    (Report.cpu report e Fm_engines.flat ~instance:"ibm01");
  let table, _ = Report.compare ~timing:true report e ~instance:"ibm01" in
  let row = List.nth (String.split_on_char '\n' (Hypart_lab.Table.render table)) 2 in
  Alcotest.(check string) "compare: twice the stored seconds" "0.500"
    (String.trim (List.hd (List.rev (String.split_on_char '|' row))))

let evolve_writer store =
  let module Evolve = Hypart_evolve.Evolve in
  let config =
    {
      Evolve.default with
      Evolve.population = 4;
      generations = 2;
      recombinations = 2;
      immigrants = 1;
      domains = Some 1;
    }
  in
  let problem =
    Hypart_partition.Problem.make ~tolerance:0.02
      (Hypart_generator.Ibm_suite.instance ~scale:64.0 "ibm01")
  in
  Some (Evolve.run ~store config ~seed:5 problem).Evolve.evaluated

let () =
  Hypart_engines.init ();
  Alcotest.run "lab"
    [
      ( "jsonl",
        [
          Alcotest.test_case "round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "malformed lines" `Quick test_jsonl_malformed;
          Alcotest.test_case "truncated record" `Quick
            test_jsonl_truncated_record;
          QCheck_alcotest.to_alcotest prop_of_line_total;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "FNV-1a golden" `Quick test_fingerprint_stable;
          Alcotest.test_case "pairs canonical" `Quick
            test_fingerprint_pairs_order_independent;
          Alcotest.test_case "instance" `Quick test_fingerprint_instance;
          Alcotest.test_case "mix_seed" `Quick test_mix_seed;
        ] );
      ( "store",
        [
          Alcotest.test_case "append/load" `Quick test_store_append_load;
          Alcotest.test_case "truncated tail" `Quick test_store_truncated_tail;
          Alcotest.test_case "compact" `Quick test_store_compact;
          Alcotest.test_case "duplicate record" `Quick
            test_store_duplicate_record;
          Alcotest.test_case "read-only load" `Quick test_store_load_read_only;
          Alcotest.test_case "record line round trip" `Quick
            test_record_line_round_trip;
          Alcotest.test_case "stats round trip" `Quick test_store_stats_round_trip;
          Alcotest.test_case "stat-less line is a hit" `Quick test_store_stat_less_line_hit;
          QCheck_alcotest.to_alcotest prop_store_truncation;
        ] );
      ( "cache",
        [ Alcotest.test_case "hit/miss counters" `Quick test_cache_counters ] );
      ( "writers",
        [
          Alcotest.test_case "orchestrator" `Quick
            (check_writer ~lines:3 ~digest:"f7e8acb870603ff7"
               ~cuts:"339eccf17edff468" orchestrator_writer);
          Alcotest.test_case "tables45" `Quick
            (check_writer ~lines:4 ~digest:"1b6ab2bbaed9663b"
               ~cuts:"9b3cdfe11b802393" tables45_writer);
          Alcotest.test_case "compare" `Quick
            (check_writer ~lines:6 ~digest:"b361f221c694be66"
               ~cuts:"0468b6bc4c130a6a" compare_writer);
          Alcotest.test_case "eco" `Quick
            (check_writer ~lines:5 ~digest:"85d5f4cf8ef717a0"
               ~cuts:"a09de8d565e38662" eco_writer);
          Alcotest.test_case "evolve" `Quick
            (check_writer ~lines:10 ~digest:"65d77b5ac6e6ae39"
               ~cuts:"7c51c347451743d1" evolve_writer);
          Alcotest.test_case "compare unknown engine" `Quick
            test_compare_unknown_engine;
          Alcotest.test_case "compare same engine" `Quick test_compare_same_engine;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "manifest validation" `Quick
            test_manifest_validation;
          Alcotest.test_case "job expansion" `Quick test_jobs_deterministic;
          Alcotest.test_case "fresh then cached" `Quick
            test_campaign_fresh_then_cached;
          Alcotest.test_case "resume report identical" `Quick
            test_resume_report_byte_identical;
          Alcotest.test_case "domain-count invariant" `Quick
            test_report_domain_count_invariant;
          Alcotest.test_case "empty store report" `Quick
            test_report_incomplete_cells;
          Alcotest.test_case "figures store identical across domains" `Quick
            test_figures_domain_invariant;
          Alcotest.test_case "cpu uses the record's factor" `Quick test_report_record_factor;
          Alcotest.test_case "tables store identical across domains" `Quick
            test_tables_domain_invariant;
          Alcotest.test_case "tables resume at every record" `Quick
            test_tables_resume_every_boundary;
        ] );
    ]
