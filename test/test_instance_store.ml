(* Packed binary instance format: text <-> binary round-trip
   bit-identity, streaming generator emission, corrupt-file rejection,
   and fingerprint stability for packed instances. *)

module H = Hypart_hypergraph.Hypergraph
module Io = Hypart_hypergraph.Netlist_io
module Store = Hypart_hypergraph.Instance_store
module Fingerprint = Hypart_lab.Fingerprint
module Generator = Hypart_generator.Generator
module Ibm_suite = Hypart_generator.Ibm_suite
module Rng = Hypart_rng.Rng

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let same_structure a b =
  let ok = ref true in
  if H.num_vertices a <> H.num_vertices b then ok := false;
  if H.num_edges a <> H.num_edges b then ok := false;
  if H.num_pins a <> H.num_pins b then ok := false;
  for e = 0 to min (H.num_edges a) (H.num_edges b) - 1 do
    if Incidence.pins a e <> Incidence.pins b e then ok := false;
    if H.edge_weight a e <> H.edge_weight b e then ok := false
  done;
  for v = 0 to min (H.num_vertices a) (H.num_vertices b) - 1 do
    if H.vertex_weight a v <> H.vertex_weight b v then ok := false;
    if Incidence.edges a v <> Incidence.edges b v then ok := false
  done;
  !ok

let sample () =
  H.create
    ~vertex_weights:[| 3; 1; 4; 1; 5 |]
    ~edge_weights:[| 1; 2; 1; 7 |]
    ~num_vertices:5
    ~edges:[| [| 0; 1; 2 |]; [| 1; 2 |]; [| 2; 3; 4 |]; [| 0; 4 |] |]
    ()

let pack_roundtrip h =
  let path = tmp "hypart_test_pack.hgrb" in
  let fp = Fingerprint.of_instance h in
  Store.save path ~fingerprint:fp h;
  let h', fp' = Store.load path in
  (h, h', fp, fp')

let test_binary_roundtrip () =
  let h, h', fp, fp' = pack_roundtrip (sample ()) in
  Alcotest.(check bool) "structure identical" true (same_structure h h');
  Alcotest.(check string) "stored fingerprint" fp fp';
  Alcotest.(check string) "recomputed fingerprint" fp (Fingerprint.of_instance h')

let test_read_fingerprint () =
  let h = sample () in
  let path = tmp "hypart_test_fp.hgrb" in
  let fp = Fingerprint.of_instance h in
  Store.save path ~fingerprint:fp h;
  Alcotest.(check string) "header-only read" fp (Store.read_fingerprint path)

(* The packed representation must be keyed by the same fingerprint in
   every session: golden value for a fixed instance.  If this changes,
   every content-addressed store and cache key silently rots. *)
let test_packed_fingerprint_golden () =
  let h = Ibm_suite.instance ~scale:64.0 "ibm01" in
  let _, h', fp, fp' = pack_roundtrip h in
  (* value verified identical to the pre-Bigarray (seed) representation *)
  Alcotest.(check string) "golden" "a8716254b0b33cbd" fp;
  Alcotest.(check string) "stored matches" fp fp';
  Alcotest.(check string) "mmap-loaded instance refingerprints identically" fp
    (Fingerprint.of_instance h')

(* Text parse -> pack -> mmap load over tricky .hgr variants: CRLF
   endings, comments, all four fmt codes. *)
let test_text_binary_variants () =
  let variants =
    [
      ("plain", "3 4\n1 2\n2 3\n3 4\n");
      ("crlf", "3 4 1\r\n2 1 2\r\n1 2 3\r\n1 3 4\r\n");
      ("comments", "% header comment\n3 4 10\n1 2\n2 3\n3 4\n2\n1\n1\n3\n");
      ("weighted", "3 4 11\n5 1 2\n1 2 3\n2 3 4\n2\n1\n1\n3\n");
      ("dup pins", "2 4\n1 2 2 1\n3 4\n");
    ]
  in
  List.iter
    (fun (name, content) ->
      let hgr = tmp "hypart_test_variant.hgr" in
      write_file hgr content;
      let h = Io.read_hgr hgr in
      let _, h', fp, fp' = pack_roundtrip h in
      Alcotest.(check bool) (name ^ " structure") true (same_structure h h');
      Alcotest.(check string) (name ^ " fingerprint") fp fp')
    variants

(* QCheck: arbitrary hypergraphs survive text -> binary -> mmap with
   bit-identical structure and fingerprint. *)
let arbitrary_hypergraph =
  QCheck.make
    (QCheck.Gen.map
       (fun seed ->
         let rng = Rng.create seed in
         let nv = 2 + Rng.int rng 30 in
         let ne = 1 + Rng.int rng 40 in
         let edges =
           Array.init ne (fun _ ->
               let size = 1 + Rng.int rng 6 in
               Array.init size (fun _ -> Rng.int rng nv))
         in
         let vertex_weights = Array.init nv (fun _ -> 1 + Rng.int rng 9) in
         let edge_weights = Array.init ne (fun _ -> 1 + Rng.int rng 5) in
         H.create ~vertex_weights ~edge_weights ~num_vertices:nv ~edges ())
       QCheck.Gen.nat)

let prop_pack_roundtrip =
  QCheck.Test.make ~name:"pack/load preserves structure and fingerprint"
    ~count:100 arbitrary_hypergraph (fun h ->
      let _, h', fp, fp' = pack_roundtrip h in
      same_structure h h' && fp = fp' && Fingerprint.of_instance h' = fp)

(* Streaming generator emission is byte-identical to writing the
   in-memory instance. *)
let prop_emit_identical =
  QCheck.Test.make ~name:"emit_hgr is byte-identical to write_hgr of generate"
    ~count:25
    QCheck.(pair small_nat small_nat)
    (fun (seed, shape) ->
      let cells = 30 + (7 * shape) in
      let params =
        Generator.default_params ~num_cells:cells ~num_nets:(cells + 10)
          ~num_pins:(4 * cells)
      in
      let written = tmp "hypart_test_emit_a.hgr" in
      Io.write_hgr written (Generator.generate (Rng.create seed) params);
      let streamed = tmp "hypart_test_emit_b.hgr" in
      let oc = open_out_bin streamed in
      Generator.emit_hgr (Rng.create seed) params oc;
      close_out oc;
      read_file written = read_file streamed)

let test_emit_instance_identical () =
  let h = Ibm_suite.instance ~scale:48.0 "ibm02" in
  let written = tmp "hypart_test_emit_suite_a.hgr" in
  Io.write_hgr written h;
  let streamed = tmp "hypart_test_emit_suite_b.hgr" in
  let oc = open_out_bin streamed in
  Ibm_suite.emit_instance ~scale:48.0 "ibm02" oc;
  close_out oc;
  Alcotest.(check string) "suite emission byte-identical" (read_file written)
    (read_file streamed)

(* Corrupt and truncated files must be rejected with located
   Format_error messages, never a crash or a silently wrong graph. *)
let test_corrupt_rejection () =
  let path = tmp "hypart_test_corrupt.hgrb" in
  let h = sample () in
  let fp = Fingerprint.of_instance h in
  Store.save path ~fingerprint:fp h;
  let packed = read_file path in
  let check_fails name content =
    write_file path content;
    match Store.load path with
    | exception Store.Format_error msg ->
      let located =
        String.length msg >= String.length path
        && String.sub msg 0 (String.length path) = path
      in
      Alcotest.(check bool) (name ^ " located at path") true located
    | exception e ->
      Alcotest.failf "%s: expected Format_error, got %s" name
        (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: expected Format_error, load succeeded" name
  in
  check_fails "empty" "";
  check_fails "short header" (String.sub packed 0 17);
  check_fails "bad magic" ("XXXX" ^ String.sub packed 4 (String.length packed - 4));
  check_fails "truncated sections" (String.sub packed 0 (String.length packed - 5));
  check_fails "trailing garbage" (packed ^ "junk");
  (* version bump: byte 8 *)
  let bumped = Bytes.of_string packed in
  Bytes.set bumped 8 '\x63';
  check_fails "future version" (Bytes.to_string bumped);
  (* swapped byte-order mark *)
  let swapped = Bytes.of_string packed in
  Bytes.blit_string (String.init 4 (fun i -> packed.[7 - i])) 0 swapped 4 4;
  check_fails "foreign byte order" (Bytes.to_string swapped);
  (* corrupt section payload: a pin out of range inside edge_pins *)
  let poisoned = Bytes.of_string packed in
  Bytes.set_int32_le poisoned 68 1000l;
  check_fails "poisoned payload" (Bytes.to_string poisoned);
  Sys.remove path;
  match Store.load path with
  | exception Store.Format_error _ -> ()
  | exception e ->
    Alcotest.failf "missing file: expected Format_error, got %s"
      (Printexc.to_string e)
  | _ -> Alcotest.fail "missing file: load succeeded"

(* A packed body decodes the same from memory as from its mapped file,
   and a mutated one — truncated, or with random bytes replaced —
   fails in both with a located Format_error, never another exception
   or an out-of-bounds read. *)
let prop_mutated_packed =
  QCheck.Test.make ~name:"mutated packed files: load and of_bytes agree"
    ~count:200 ~long_factor:100
    QCheck.(pair arbitrary_hypergraph small_nat)
    (fun (h, seed) ->
      let path = tmp "hypart_test_fuzz.hgrb" in
      Store.save path ~fingerprint:(Fingerprint.of_instance h) h;
      let packed = read_file path in
      let rng = Rng.create seed in
      let n = String.length packed in
      let body =
        if Rng.bool rng then String.sub packed 0 (Rng.int rng n)
        else begin
          let b = Bytes.of_string packed in
          for _ = 0 to Rng.int rng 4 do
            Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256))
          done;
          Bytes.to_string b
        end
      in
      write_file path body;
      let decode f =
        match f () with
        | h, fp -> Ok (H.Csr.edge_pins h, H.Csr.vertex_edges h, fp)
        | exception Store.Format_error msg -> Error msg
      in
      match
        ( decode (fun () -> Store.load path),
          decode (fun () ->
              Store.of_bytes ~source:path (Bytes.of_string (body ^ "HGRB"))
                (String.length body)) )
      with
      | Ok a, Ok b -> a = b
      | Error a, Error b -> a = b
      | _ -> false
      | exception e ->
        QCheck.Test.fail_reportf "%s escaped" (Printexc.to_string e))

let test_save_is_atomic () =
  let path = tmp "hypart_test_atomic.hgrb" in
  let h = sample () in
  let fp = Fingerprint.of_instance h in
  Store.save path ~fingerprint:fp h;
  (* overwrite with a second instance: the temp-and-rename path must
     replace, not append or corrupt *)
  let h2 = Ibm_suite.instance ~scale:64.0 "ibm01" in
  Store.save path ~fingerprint:(Fingerprint.of_instance h2) h2;
  let h', _ = Store.load path in
  Alcotest.(check bool) "second save wins" true (same_structure h2 h')

let () =
  Alcotest.run "instance_store"
    [
      ( "binary",
        [
          Alcotest.test_case "roundtrip" `Quick test_binary_roundtrip;
          Alcotest.test_case "read_fingerprint" `Quick test_read_fingerprint;
          Alcotest.test_case "packed fingerprint golden" `Quick
            test_packed_fingerprint_golden;
          Alcotest.test_case "text variants" `Quick test_text_binary_variants;
          Alcotest.test_case "corrupt rejection" `Quick test_corrupt_rejection;
          Alcotest.test_case "atomic save" `Quick test_save_is_atomic;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "suite emission" `Quick test_emit_instance_identical;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_pack_roundtrip;
          QCheck_alcotest.to_alcotest prop_emit_identical;
          QCheck_alcotest.to_alcotest prop_mutated_packed;
        ] );
    ]
