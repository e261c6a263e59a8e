(* The ECO subsystem: .hgrd codec round trips and located corruption
   errors, patcher correctness against hand-built instances, chained
   fingerprints, warm-start projection/localization/refinement
   determinism, the fallback guard, and the generator's contract that
   every delta it emits applies cleanly. *)

module H = Hypart_hypergraph.Hypergraph
module Delta = Hypart_delta.Delta
module Patch = Hypart_delta.Patch
module Eco = Hypart_delta.Eco
module Eco_engines = Hypart_delta.Eco_engines
module Delta_gen = Hypart_delta.Delta_gen
module Suite = Hypart_generator.Ibm_suite
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Engine = Hypart_engine.Engine
module Rng = Hypart_rng.Rng
module Fingerprint = Hypart_lab.Fingerprint
module Trace = Hypart_telemetry.Trace
module Control = Hypart_telemetry.Control

(* a 6-cell, 4-net instance used by most patcher tests:
     net 0: 0 1 2   net 1: 2 3   net 2: 3 4 5   net 3: 0 5 *)
let base () =
  H.create ~num_vertices:6
    ~edges:[| [| 0; 1; 2 |]; [| 2; 3 |]; [| 3; 4; 5 |]; [| 0; 5 |] |]
    ()

let base_fp h = Fingerprint.of_instance h

(* ---------------- codec ---------------- *)

let test_codec_round_trip () =
  let text =
    "HGRD 1\n\
     % a comment\n\
     base aabbccdd00112233\n\
     rmnet 2\n\
     rmcell 4\n\
     reweight 1 7\n\
     addcell 3\n\
     addnet 2 1 7\n\
     prior 6\n0\n0\n1\n1\n0\n1\n"
  in
  let d = Delta.of_string text in
  Alcotest.(check int) "ops" 5 (Delta.num_ops d);
  (match d.Delta.base with
  | Some (fp, _) -> Alcotest.(check string) "base" "aabbccdd00112233" fp
  | None -> Alcotest.fail "base line lost");
  (match d.Delta.prior with
  | Some p -> Alcotest.(check (array int)) "prior" [| 0; 0; 1; 1; 0; 1 |] p
  | None -> Alcotest.fail "prior lost");
  let d2 = Delta.of_string (Delta.to_string d) in
  Alcotest.(check string) "canonical fixpoint" (Delta.to_string d)
    (Delta.to_string d2);
  Alcotest.(check int) "ops preserved" 5 (Delta.num_ops d2);
  (* dropping the prior drops only the prior *)
  let no_prior = Delta.to_string ~with_prior:false d in
  let d3 = Delta.of_string no_prior in
  Alcotest.(check bool) "prior stripped" true (d3.Delta.prior = None);
  Alcotest.(check int) "ops survive strip" 5 (Delta.num_ops d3)

(* tiny infix check (no extra test dependency) *)
let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let check_located name fragment f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Parse_error")
  | exception Delta.Parse_error msg ->
    let located =
      (* "source:line: message" *)
      String.length msg > 0 && String.contains msg ':'
      && is_infix ~affix:fragment msg
    in
    if not located then
      Alcotest.fail
        (Printf.sprintf "%s: message %S lacks %S" name msg fragment)

let test_codec_corruption () =
  (* truncated prior section *)
  check_located "truncated" "truncated prior section" (fun () ->
      Delta.of_string "HGRD 1\nrmnet 1\nprior 4\n0\n1\n");
  (* duplicate net removal *)
  check_located "dup rmnet" "duplicate removal of net" (fun () ->
      Delta.of_string "HGRD 1\nrmnet 3\nrmnet 3\n");
  (* duplicate cell removal *)
  check_located "dup rmcell" "duplicate removal of cell" (fun () ->
      Delta.of_string "HGRD 1\nrmcell 2\nrmcell 2\n");
  (* missing header *)
  check_located "header" "HGRD" (fun () -> Delta.of_string "rmnet 1\n");
  (* garbage op *)
  check_located "unknown op" "unknown delta op" (fun () ->
      Delta.of_string "HGRD 1\nfrobnicate 3\n");
  (* the error is located with the declared source *)
  (match Delta.of_string ~source:"x.hgrd" "HGRD 1\nrmnet 0\n" with
  | _ -> Alcotest.fail "rmnet 0 accepted"
  | exception Delta.Parse_error msg ->
    Alcotest.(check bool) "source in message" true
      (String.length msg >= 7 && String.sub msg 0 7 = "x.hgrd:"))

(* prior lines are scanned in place; each malformed one still fails
   with the message and line it always had *)
let test_codec_prior_lines () =
  List.iter
    (fun (body, expected) ->
      match Delta.of_string body with
      | _ -> Alcotest.failf "accepted %S" body
      | exception Delta.Parse_error msg ->
        Alcotest.(check string) (String.escaped body) expected msg)
    [
      ("HGRD 1\nprior 2\n0\n2\n", "<delta>:4: prior side must be 0 or 1, got 2");
      ("HGRD 1\nprior 2\n0\n-1\n", "<delta>:4: prior side must be 0 or 1, got -1");
      ("HGRD 1\nprior 2\n0\n0 1\n", "<delta>:4: expected one side per prior line");
      ("HGRD 1\nprior 2\n0\n0 x\n", "<delta>:4: expected one side per prior line");
      ("HGRD 1\nprior 2\n0\nx 0\n", "<delta>:4: expected one side per prior line");
      ("HGRD 1\nprior 2\n0\nx\n", "<delta>:4: expected integer, got \"x\"");
      ( "HGRD 1\nprior 2\n0\n99999999999999999999\n",
        "<delta>:4: expected integer, got \"99999999999999999999\"" );
      ( "HGRD 1\nprior 2\n0\n",
        "<delta>:2: truncated prior section: expected 2 side lines, found 1" );
      ( "HGRD 1\nprior 1\n0\n% note\n1\n",
        "<delta>:5: trailing line \"1\" after prior section" );
    ];
  (* a side token int_of_string_opt reads is a side, as it always was *)
  match (Delta.of_string "HGRD 1\nprior 3\n 1\t\n0x1\r\n+0\n").Delta.prior with
  | Some p -> Alcotest.(check (array int)) "sides" [| 1; 1; 0 |] p
  | None -> Alcotest.fail "prior lost"

let test_codec_line_numbers () =
  match Delta.of_string "HGRD 1\nrmnet 1\nrmnet 1\n" with
  | _ -> Alcotest.fail "duplicate accepted"
  | exception Delta.Parse_error msg ->
    (* the SECOND rmnet line (line 3) is the corrupt one *)
    Alcotest.(check bool) "line 3" true (is_infix ~affix:":3:" msg)

(* an unopenable file is a Parse_error naming the path, like every
   other decoder error, never a raw Sys_error *)
let test_codec_missing_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "hypart_no_such.hgrd" in
  (try Sys.remove path with Sys_error _ -> ());
  match Delta.read path with
  | _ -> Alcotest.fail "missing file read"
  | exception Delta.Parse_error msg ->
    Alcotest.(check bool) ("path in message: " ^ msg) true
      (is_infix ~affix:path msg)

(* a prior longer than the body is refused before its sides are
   allocated *)
let test_codec_oversized_prior () =
  check_located "oversized prior" "prior length" (fun () ->
      Delta.of_string "HGRD 1\nprior 99999999999999\n0\n")

(* ---------------- patcher ---------------- *)

let apply h text =
  Patch.apply ~base:h ~base_fingerprint:(base_fp h) (Delta.of_string text)

let test_patch_remove_net () =
  let h = base () in
  let p = apply h "HGRD 1\nrmnet 2\n" in
  let h' = p.Patch.hypergraph in
  Alcotest.(check int) "nets" 3 (H.num_edges h');
  Alcotest.(check int) "cells" 6 (H.num_vertices h');
  Alcotest.(check int) "pins" 8 (H.num_pins h');
  (* former pins of the removed net are touched *)
  Alcotest.(check (list int)) "touched" [ 2; 3 ]
    (Array.to_list p.Patch.touched);
  Alcotest.(check int) "stats" 1 p.Patch.stats.Patch.nets_removed

let test_patch_remove_cell_compacts () =
  let h = base () in
  let p = apply h "HGRD 1\nrmcell 2\n" in
  let h' = p.Patch.hypergraph in
  Alcotest.(check int) "cells" 5 (H.num_vertices h');
  (* net 0 loses its pin but keeps 2 pins; every net survives *)
  Alcotest.(check int) "nets" 4 (H.num_edges h');
  Alcotest.(check (array int)) "vertex map" [| 0; -1; 1; 2; 3; 4 |]
    p.Patch.vertex_map;
  (* a net reduced below 2 pins drops entirely *)
  let p2 = apply h "HGRD 1\nrmcell 3\n" in
  Alcotest.(check int) "net 1 dropped" 3 (H.num_edges p2.Patch.hypergraph)

let test_patch_add_cell_and_net () =
  let h = base () in
  let p = apply h "HGRD 1\naddcell 5\naddnet 2 1 7\n" in
  let h' = p.Patch.hypergraph in
  Alcotest.(check int) "cells" 7 (H.num_vertices h');
  Alcotest.(check int) "nets" 5 (H.num_edges h');
  Alcotest.(check int) "new cell weight" 5 (H.vertex_weight h' 6);
  Alcotest.(check int) "new net weight" 2 (H.edge_weight h' 4);
  Alcotest.(check (array int)) "added cells" [| 6 |] p.Patch.added_cells

let test_patch_reweight () =
  let h = base () in
  let p = apply h "HGRD 1\nreweight 4 9\n" in
  Alcotest.(check int) "weight" 9 (H.vertex_weight p.Patch.hypergraph 3);
  Alcotest.(check int) "total" (5 + 9)
    (H.total_vertex_weight p.Patch.hypergraph)

let check_apply_error name fragment f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Apply_error")
  | exception Patch.Apply_error msg ->
    if not (is_infix ~affix:fragment msg) then
      Alcotest.fail (Printf.sprintf "%s: %S lacks %S" name msg fragment)

let test_patch_errors () =
  let h = base () in
  check_apply_error "unknown cell" "reweight of unknown cell 9" (fun () ->
      apply h "HGRD 1\nreweight 9 3\n");
  check_apply_error "unknown net" "removal of unknown net 7" (fun () ->
      apply h "HGRD 1\nrmnet 7\n");
  check_apply_error "pin of removed cell" "removed cell" (fun () ->
      apply h "HGRD 1\nrmcell 1\naddnet 1 1 2\n");
  check_apply_error "wrong base" "delta targets base" (fun () ->
      Patch.apply ~base:h ~base_fingerprint:(base_fp h)
        (Delta.of_string "HGRD 1\nbase 0000000000000000\nrmnet 1\n"))

let test_chain_fingerprint () =
  let h = base () in
  let fp = base_fp h in
  let d1 = Delta.of_string "HGRD 1\nrmnet 2\n" in
  let d2 = Delta.of_string "HGRD 1\n% comment\nrmnet 2\n" in
  (* equal ops, equal chain fingerprint — comments and prior excluded *)
  Alcotest.(check string) "stable"
    (Delta.chain_fingerprint ~base:fp d1)
    (Delta.chain_fingerprint ~base:fp (Delta.with_prior d2 (Some [| 0; 1; 0; 1; 0; 1 |])));
  (* different base, different chain *)
  Alcotest.(check bool) "chained" true
    (Delta.chain_fingerprint ~base:fp d1
    <> Delta.chain_fingerprint ~base:"other" d1);
  (* the patch carries the same fingerprint *)
  let p = apply h "HGRD 1\nrmnet 2\n" in
  Alcotest.(check string) "patch agrees"
    (Delta.chain_fingerprint ~base:fp d1)
    p.Patch.fingerprint

(* ---------------- warm start ---------------- *)

let test_project_keeps_sides_and_places_new () =
  let h = base () in
  let p = apply h "HGRD 1\naddcell 1\naddnet 1 4 7\naddnet 1 5 7\n" in
  let side = Eco.project p ~prior:[| 0; 0; 0; 1; 1; 1 |] in
  Alcotest.(check (array int)) "surviving sides"
    [| 0; 0; 0; 1; 1; 1 |]
    (Array.sub side 0 6);
  (* the new cell's pins (cells 3 and 4, both side 1) pull it to 1 *)
  Alcotest.(check int) "affinity placement" 1 side.(6)

let test_localize_radius () =
  let h = base () in
  let p = apply h "HGRD 1\nreweight 1 2\n" in
  (* touched = {0}; radius 0 frees exactly the touched set *)
  let fixed0 = Eco.localize p ~radius:0 ~assignment:[| 0; 0; 0; 1; 1; 1 |] in
  Alcotest.(check (array int)) "radius 0" [| -1; 0; 0; 1; 1; 1 |] fixed0;
  (* radius 1 frees the pins of nets 0 and 3 *)
  let fixed1 = Eco.localize p ~radius:1 ~assignment:[| 0; 0; 0; 1; 1; 1 |] in
  Alcotest.(check (array int)) "radius 1" [| -1; -1; -1; 1; 1; -1 |] fixed1

let eco_run ?(engine = Eco_engines.eco_fm) ?config ~seed p prior =
  Eco.run ?config ~engine ~scratch:Hypart_multilevel.Ml_engines.mlclip ~seed
    ~prior p

let test_warm_deterministic () =
  let h = Suite.instance ~scale:8.0 "ibm01" in
  let fp = Fingerprint.of_instance h in
  let prior =
    let problem = Problem.make ~tolerance:0.02 h in
    let r =
      Engine.run Hypart_multilevel.Ml_engines.mlclip (Rng.create 7) problem
        None
    in
    Bipartition.assignment r.Engine.Result.solution
  in
  let delta = Delta_gen.perturb ~rng:(Rng.create 11) ~fraction:0.01 h in
  let p = Patch.apply ~base:h ~base_fingerprint:fp delta in
  let o1 = eco_run ~seed:5 p prior in
  let o2 = eco_run ~seed:5 p prior in
  Alcotest.(check int) "cut" o1.Eco.result.Engine.Result.cut
    o2.Eco.result.Engine.Result.cut;
  Alcotest.(check (array int)) "assignment bit-identical"
    (Bipartition.assignment o1.Eco.result.Engine.Result.solution)
    (Bipartition.assignment o2.Eco.result.Engine.Result.solution);
  Alcotest.(check bool) "legal" true o1.Eco.result.Engine.Result.legal;
  Alcotest.(check bool) "warm mode" true (o1.Eco.mode = Eco.Warm);
  (* refinement never loses to its own start *)
  Alcotest.(check bool) "no worse than projection" true
    (o1.Eco.result.Engine.Result.cut <= o1.Eco.projected_cut)

let test_fallback_guard () =
  let h = base () in
  (* reweight every cell: touched fraction 1.0 > any sane threshold *)
  let p =
    apply h
      "HGRD 1\nreweight 1 2\nreweight 2 2\nreweight 3 2\nreweight 4 \
       2\nreweight 5 2\nreweight 6 2\n"
  in
  let o =
    eco_run
      ~config:{ Eco.radius = 1; fallback_fraction = 0.25; tolerance = 0.5 }
      ~seed:3 p [| 0; 0; 0; 1; 1; 1 |]
  in
  Alcotest.(check bool) "scratch mode" true (o.Eco.mode = Eco.Scratch)

let test_rebalance_restores_legality () =
  let h = Suite.instance ~scale:8.0 "ibm01" in
  let fp = Fingerprint.of_instance h in
  let prior =
    let problem = Problem.make ~tolerance:0.02 h in
    let r =
      Engine.run Hypart_multilevel.Ml_engines.mlclip (Rng.create 7) problem
        None
    in
    Bipartition.assignment r.Engine.Result.solution
  in
  (* reweight a block of side-0 cells upward so the raw projection is
     illegal at 2% — the warm result must still come back legal *)
  let b = Buffer.create 256 in
  Buffer.add_string b "HGRD 1\n";
  let added = ref 0 in
  for v = 0 to H.num_vertices h - 1 do
    if prior.(v) = 0 && !added < 40 then begin
      incr added;
      Printf.bprintf b "reweight %d %d" (v + 1) (H.vertex_weight h v + 3);
      Buffer.add_char b '\n'
    end
  done;
  let p =
    Patch.apply ~base:h ~base_fingerprint:fp
      (Delta.of_string (Buffer.contents b))
  in
  let o = eco_run ~seed:5 p prior in
  Alcotest.(check bool) "legal" true o.Eco.result.Engine.Result.legal

(* ---------------- the warm path's cost ---------------- *)

(* the ibm01 twin at full size, an mlclip prior and one 1% delta: the
   fixture of the daemon's eco_chain workload *)
let ibm01_eco =
  lazy
    (let h = Suite.instance ~scale:1.0 "ibm01" in
     let fp = Fingerprint.of_instance h in
     let prior =
       Bipartition.assignment
         (Engine.run Hypart_multilevel.Ml_engines.mlclip (Rng.create 7)
            (Problem.make ~tolerance:0.02 h)
            None)
           .Engine.Result.solution
     in
     let delta = Delta_gen.perturb ~rng:(Rng.create 11) ~fraction:0.01 h in
     (Patch.apply ~base:h ~base_fingerprint:fp delta, prior, delta))

let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* Deterministic counts of minor words, not timings.  On this fixture a
   warm Eco.run used to allocate 1,436,621 minor words (lists and
   closures per net and per pin in extraction and localization, tuples
   in the cut); the budget is a tenth of that.  Decoding the delta with
   its 12,752-line prior used to allocate 8.51 minor words per byte (a
   string list per prior line); the budget is 0.5. *)
let test_alloc_budget () =
  let p, prior, delta = Lazy.force ibm01_eco in
  let run () = eco_run ~seed:5 p prior in
  (* the first run sizes the domain's FM workspace *)
  Alcotest.(check bool) "warm" true ((run ()).Eco.mode = Eco.Warm);
  let words = minor_words run in
  if words > 143_662. then
    Alcotest.failf "a warm Eco.run allocates %.0f minor words (budget 143662)"
      words;
  let body = Delta.to_string (Delta.with_prior delta (Some prior)) in
  Alcotest.(check int) "prior lines" 12752 (Array.length prior);
  ignore (Delta.of_string body);
  let per_byte =
    minor_words (fun () -> Delta.of_string body)
    /. float_of_int (String.length body)
  in
  if per_byte > 0.5 then
    Alcotest.failf
      "Delta.of_string allocates %.2f minor words per byte (budget 0.5)"
      per_byte

(* a traced warm run attributes its time to the four ECO phases *)
let test_eco_spans () =
  let p, prior, _ = Lazy.force ibm01_eco in
  Trace.reset ();
  Control.enable ();
  let o = Fun.protect ~finally:Control.disable (fun () -> eco_run ~seed:5 p prior) in
  Alcotest.(check bool) "warm" true (o.Eco.mode = Eco.Warm);
  let names = List.map (fun e -> e.Trace.name) (Trace.events ()) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span") true (List.mem name names))
    [ "eco.localize"; "eco.extract"; "eco.refine"; "eco.splice" ];
  Alcotest.(check int) "balanced" 0 (Trace.unbalanced_spans ());
  Trace.reset ()

(* ---------------- generator ---------------- *)

let test_gen_deterministic_and_applies () =
  let h = Suite.instance ~scale:8.0 "ibm02" in
  let fp = Fingerprint.of_instance h in
  let d1 =
    Delta_gen.perturb ~base_fingerprint:fp ~rng:(Rng.create 9) ~fraction:0.01
      h
  in
  let d2 =
    Delta_gen.perturb ~base_fingerprint:fp ~rng:(Rng.create 9) ~fraction:0.01
      h
  in
  Alcotest.(check string) "deterministic" (Delta.to_string d1)
    (Delta.to_string d2);
  (* applies cleanly and keeps the instance alive *)
  let p = Patch.apply ~base:h ~base_fingerprint:fp d1 in
  Alcotest.(check bool) "cells survive" true
    (H.num_vertices p.Patch.hypergraph > 0);
  (* churn stays within the declared fraction of the instance *)
  let churn = p.Patch.stats.Patch.pins_touched in
  Alcotest.(check bool)
    (Printf.sprintf "bounded churn (%d pins)" churn)
    true
    (churn < H.num_pins h / 10)

let test_gen_rejects_bad_fraction () =
  let h = base () in
  (match Delta_gen.perturb ~rng:(Rng.create 1) ~fraction:0.0 h with
  | _ -> Alcotest.fail "fraction 0 accepted"
  | exception Invalid_argument _ -> ());
  match Delta_gen.perturb ~rng:(Rng.create 1) ~fraction:1.5 h with
  | _ -> Alcotest.fail "fraction 1.5 accepted"
  | exception Invalid_argument _ -> ()

(* ---------------- properties ---------------- *)

(* a generated delta against a small twin, with a prior of random
   sides half the time *)
let generated seed =
  let rng = Rng.create seed in
  let h = Suite.instance ~scale:256. ~seed "ibm01" in
  let fp = base_fp h in
  let d =
    Delta_gen.perturb ~base_fingerprint:fp ~rng
      ~fraction:(0.01 +. Rng.float rng 0.2)
      h
  in
  let d =
    if Rng.bool rng then
      Delta.with_prior d
        (Some (Array.init (H.num_vertices h) (fun _ -> Rng.int rng 2)))
    else d
  in
  (rng, h, fp, d)

(* [text] with CRLF endings, or with '%' comment and blank lines
   interleaved: layouts the codec must read the same *)
let relayout rng text =
  let lines = String.split_on_char '\n' text in
  if Rng.bool rng then String.concat "\r\n" lines
  else
    String.concat "\n"
      (List.concat_map
         (fun l ->
           match Rng.int rng 6 with
           | 0 -> [ "% note"; l ]
           | 1 -> [ " \t"; l ]
           | _ -> [ l ])
         lines)

let prop_codec_round_trip =
  QCheck.Test.make ~name:"generated deltas round-trip" ~count:100
    ~long_factor:100 QCheck.small_nat (fun seed ->
      let rng, _, _, d = generated seed in
      let text = Delta.to_string d in
      let d' = Delta.of_string (relayout rng text) in
      Delta.to_string d' = text
      && Array.map snd d'.Delta.ops = Array.map snd d.Delta.ops
      && Option.map fst d'.Delta.base = Option.map fst d.Delta.base
      && d'.Delta.prior = d.Delta.prior)

(* a corrupted delta either parses and applies, or fails with the
   codec's located Parse_error or the patcher's Apply_error *)
let prop_codec_fuzz =
  QCheck.Test.make ~name:"mutated deltas apply or fail located" ~count:300
    ~long_factor:100 QCheck.small_nat (fun seed ->
      let rng, h, fp, d = generated seed in
      let body = Fuzz.mutate rng (Delta.to_string d) in
      match
        Patch.apply ~base:h ~base_fingerprint:fp
          (Delta.of_string ~source:"<fuzz>" body)
      with
      | _ -> true
      | exception Delta.Parse_error msg ->
        String.starts_with ~prefix:"<fuzz>:" msg
      | exception Patch.Apply_error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "%s escaped" (Printexc.to_string e))

(* a decoded delta keeps none of the bytes it read: parsed from a slice
   of a buffer that is overwritten afterwards, it renders as a parse of
   an intact copy does.  The line after the slice would be an op, or a
   trailing line after a prior section, if it were read. *)
let prop_codec_keeps_no_bytes =
  QCheck.Test.make ~name:"a decoded delta keeps none of its buffer" ~count:100
    ~long_factor:100 QCheck.small_nat (fun seed ->
      let rng, _, _, d = generated seed in
      let text = relayout rng (Delta.to_string d) in
      let buf = Bytes.of_string (text ^ "rmnet 1\n") in
      let d' = Delta.of_bytes buf (String.length text) in
      Bytes.fill buf 0 (Bytes.length buf) 'x';
      Delta.to_string d' = Delta.to_string (Delta.of_string text))

let () =
  Alcotest.run "delta"
    [
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_codec_round_trip;
          Alcotest.test_case "corruption matrix" `Quick test_codec_corruption;
          Alcotest.test_case "line numbers" `Quick test_codec_line_numbers;
          Alcotest.test_case "prior lines" `Quick test_codec_prior_lines;
          Alcotest.test_case "oversized prior" `Quick test_codec_oversized_prior;
          Alcotest.test_case "missing file" `Quick test_codec_missing_file;
          QCheck_alcotest.to_alcotest prop_codec_round_trip;
          QCheck_alcotest.to_alcotest prop_codec_fuzz;
          QCheck_alcotest.to_alcotest prop_codec_keeps_no_bytes;
        ] );
      ( "patch",
        [
          Alcotest.test_case "remove net" `Quick test_patch_remove_net;
          Alcotest.test_case "remove cell compacts" `Quick
            test_patch_remove_cell_compacts;
          Alcotest.test_case "add cell and net" `Quick
            test_patch_add_cell_and_net;
          Alcotest.test_case "reweight" `Quick test_patch_reweight;
          Alcotest.test_case "apply errors" `Quick test_patch_errors;
          Alcotest.test_case "chain fingerprint" `Quick test_chain_fingerprint;
        ] );
      ( "warm start",
        [
          Alcotest.test_case "project" `Quick
            test_project_keeps_sides_and_places_new;
          Alcotest.test_case "localize radius" `Quick test_localize_radius;
          Alcotest.test_case "deterministic" `Quick test_warm_deterministic;
          Alcotest.test_case "fallback guard" `Quick test_fallback_guard;
          Alcotest.test_case "rebalance legality" `Quick
            test_rebalance_restores_legality;
        ] );
      ( "cost",
        [
          Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
          Alcotest.test_case "eco spans" `Quick test_eco_spans;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic and applies" `Quick
            test_gen_deterministic_and_applies;
          Alcotest.test_case "bad fraction" `Quick test_gen_rejects_bad_fraction;
        ] );
    ]
