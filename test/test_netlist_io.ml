module H = Hypart_hypergraph.Hypergraph
module Io = Hypart_hypergraph.Netlist_io
module Http = Hypart_server.Http

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let sample () =
  H.create ~num_vertices:5
    ~vertex_weights:[| 3; 1; 4; 1; 5 |]
    ~edge_weights:[| 1; 2; 1; 7 |]
    ~edges:[| [| 0; 1; 2 |]; [| 1; 3 |]; [| 2; 3; 4 |]; [| 0; 4 |] |]
    ()

let equal_hypergraphs a b =
  H.num_vertices a = H.num_vertices b
  && H.num_edges a = H.num_edges b
  && (let ok = ref true in
      for e = 0 to H.num_edges a - 1 do
        if Incidence.pins a e <> Incidence.pins b e then ok := false;
        if H.edge_weight a e <> H.edge_weight b e then ok := false
      done;
      for v = 0 to H.num_vertices a - 1 do
        if H.vertex_weight a v <> H.vertex_weight b v then ok := false
      done;
      !ok)

let test_hgr_roundtrip_weighted () =
  let h = sample () in
  let path = tmp "hypart_test_w.hgr" in
  Io.write_hgr path h;
  let h' = Io.read_hgr path in
  Alcotest.(check bool) "roundtrip equal" true (equal_hypergraphs h h')

let test_hgr_roundtrip_unweighted () =
  let h = sample () in
  let path = tmp "hypart_test_u.hgr" in
  Io.write_hgr ~with_weights:false path h;
  let h' = Io.read_hgr path in
  Alcotest.(check int) "edges preserved" (H.num_edges h) (H.num_edges h');
  Alcotest.(check (array int)) "pins preserved" (Incidence.pins h 2) (Incidence.pins h' 2);
  Alcotest.(check int) "weights dropped" 1 (H.vertex_weight h' 0)

let test_hgr_comments_and_fmt1 () =
  let path = tmp "hypart_test_fmt1.hgr" in
  let oc = open_out path in
  output_string oc "% a comment\n3 4 1\n% another\n5 1 2\n1 3 4\n2 2 3\n";
  close_out oc;
  let h = Io.read_hgr path in
  Alcotest.(check int) "3 edges" 3 (H.num_edges h);
  Alcotest.(check int) "edge weight parsed" 5 (H.edge_weight h 0);
  Alcotest.(check (array int)) "0-indexed pins" [| 0; 1 |] (Incidence.pins h 0)

let test_hgr_errors () =
  let write_and_read content =
    let path = tmp "hypart_test_bad.hgr" in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    Io.read_hgr path
  in
  let check_fails name content =
    Alcotest.check_raises name (Failure "parse") (fun () ->
        try ignore (write_and_read content)
        with Io.Parse_error _ -> raise (Failure "parse"))
  in
  check_fails "empty" "";
  check_fails "bad header" "x y\n";
  check_fails "unsupported fmt" "1 2 7\n1 2\n";
  check_fails "missing lines" "2 2\n1 2\n";
  check_fails "pin out of range" "1 2\n1 3\n";
  check_fails "garbage pin" "1 2\n1 z\n"

(* hardening: files written on Windows (CRLF), with trailing blank
   lines, interleaved '%' comments or tab-separated fields must parse
   to the same hypergraph as their canonical form *)
let test_hgr_crlf_and_blanks () =
  let path = tmp "hypart_test_crlf.hgr" in
  let oc = open_out_bin path in
  output_string oc
    "% CRLF file\r\n3 4 1\r\n5 1 2\r\n% interior comment\r\n1\t3\t4\r\n2 2 3\r\n\r\n   \r\n";
  close_out oc;
  let h = Io.read_hgr path in
  Alcotest.(check int) "3 edges" 3 (H.num_edges h);
  Alcotest.(check int) "4 vertices" 4 (H.num_vertices h);
  Alcotest.(check int) "edge weight" 5 (H.edge_weight h 0);
  Alcotest.(check (array int)) "tab-separated pins" [| 2; 3 |] (Incidence.pins h 1)

(* The decoder's dedup marks live on in the domain's scratch: a decode
   that fails after marking pins must not make a later decode on the
   same domain drop pins as duplicates, and neither may the marks the
   one-scan reader leaves on a line it declines ("+2") before the
   general reader takes that line. *)
let test_hgr_stale_marks () =
  let decode body = fst (Io.decode ~source:"<body>" Io.Hgr body) in
  (match decode "2 3\n1 2\n3 x\n" with
   | _ -> Alcotest.fail "a bad token decoded"
   | exception Io.Parse_error _ -> ());
  let expected = H.create ~num_vertices:3 ~edges:[| [| 0; 1 |]; [| 1; 2 |] |] () in
  List.iter
    (fun body ->
      let h = decode body in
      Alcotest.(check (array (array int))) ("pins of " ^ String.escaped body)
        (Array.init 2 (Incidence.pins expected))
        (Array.init (H.num_edges h) (Incidence.pins h)))
    [ "2 3\n1 2\n2 3\n"; "2 3\n1 1 +2\n2 3\n" ]

let test_hgr_located_errors () =
  let read content =
    let path = tmp "hypart_test_loc.hgr" in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    Io.read_hgr path
  in
  (* every malformed input must surface as a located Parse_error
     ("path:line: ..."), never a bare exception from Array.make or
     int_of_string *)
  let check_located name content expected_line =
    match read content with
    | exception Io.Parse_error msg ->
      let needle = Printf.sprintf ":%d:" expected_line in
      let located =
        let n = String.length needle in
        let rec scan i =
          i + n <= String.length msg
          && (String.sub msg i n = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) (name ^ " is located at line") true located
    | exception e ->
      Alcotest.failf "%s: expected Parse_error, got %s" name (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: expected Parse_error, parse succeeded" name
  in
  check_located "negative edge count" "-1 4\n" 1;
  check_located "negative vertex count" "1 -4\n1 2\n" 1;
  check_located "vertex count beyond int32" "1 99999999999999999\n1\n" 1;
  check_located "edge count beyond the input" "99999999999 4\n1 2\n" 1;
  check_located "vertex count beyond the input" "1 2000000000\n1 2\n" 1;
  check_located "pin out of range" "2 4\n1 2\n3 9\n" 3;
  check_located "pin not an integer" "2 4\n1 2\n3 x\n" 3;
  check_located "comment lines keep numbering" "% c\n2 4\n% c\n1 2\n3 9\n" 5;
  check_located "zero edge weight" "2 4 1\n1 1 2\n0 1 2\n" 3;
  check_located "zero vertex weight" "1 2 10\n1 2\n1\n0\n" 4;
  check_located "weight alone" "2 4 1\n1 1 2\n5\n" 3

(* A vertex needs no line, so an .hgr header may name isolated
   vertices, but only up to the input's size plus 2^20 of them: a
   17-byte body naming two billion vertices is refused before anything
   is allocated for them, from a body and from a file alike. *)
let test_hgr_vertex_count_bound () =
  let huge = "1 2000000000\n1 2\n" in
  (match Io.decode ~source:"<body>" Io.Hgr huge with
  | _ -> Alcotest.fail "two billion vertices accepted"
  | exception Io.Parse_error msg ->
    Alcotest.(check string) "located" "<body>:1: vertex count 2000000000 out of range"
      msg);
  let h, _ = Io.decode ~source:"<body>" Io.Hgr "1 1000000\n1 2\n" in
  Alcotest.(check int) "isolated vertices within the allowance" 1_000_000
    (H.num_vertices h)

(* the data lines of a written text file *)
let file_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let test_are_roundtrip () =
  let h = sample () in
  let path = tmp "hypart_test.are" in
  Io.write_are path h;
  Alcotest.(check (list string)) "one area row per cell"
    [ "a0 3"; "a1 1"; "a2 4"; "a3 1"; "a4 5" ]
    (file_lines path)

(* [.netD] and Bookshelf through the format dispatch *)
let read_netd path = fst (Io.read Io.Netd path)
let read_bookshelf ~basename = fst (Io.read Io.Bookshelf (basename ^ ".nodes"))

let test_netd_roundtrip () =
  let h = sample () in
  let path = tmp "hypart_test.netD" in
  Netlists.write_netd ~num_pads:2 path h;
  let h' = read_netd path in
  Alcotest.(check int) "vertices" 5 (H.num_vertices h');
  Alcotest.(check int) "nets" 4 (H.num_edges h');
  for e = 0 to 3 do
    Alcotest.(check (array int))
      (Printf.sprintf "net %d pins" e)
      (Incidence.pins h e) (Incidence.pins h' e)
  done;
  (* .netD carries no weights *)
  Alcotest.(check int) "unit area" 1 (H.vertex_weight h' 0)

let test_netd_header_checks () =
  let write content =
    let path = tmp "hypart_test_bad.netD" in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  let check_fails name content =
    Alcotest.check_raises name (Failure "parse") (fun () ->
        try ignore (read_netd (write content))
        with Io.Parse_error _ -> raise (Failure "parse"))
  in
  check_fails "truncated" "0\n3\n";
  check_fails "pin count mismatch" "0\n3\n1\n2\n2\na0 s\na1 l\na0 l\na1 l\n";
  check_fails "net count mismatch" "0\n2\n2\n2\n2\na0 s\na1 l\n";
  check_fails "continuation first" "0\n2\n1\n2\n2\na0 l\na1 l\n";
  check_fails "bad name" "0\n2\n1\n2\n2\nx0 s\na1 l\n";
  check_fails "pad id out of range" "0\n2\n1\n2\n2\na0 s\np5 l\n";
  check_fails "module count beyond int32" "0\n1\n1\n99999999999999999\n0\np0 s\n"

let test_netd_pads_mapped () =
  (* 2 cells + 1 pad: pad p0 is vertex 2 *)
  let path = tmp "hypart_test_pads.netD" in
  let oc = open_out path in
  output_string oc "0\n3\n1\n3\n2\na0 s\na1 l\np0 l\n";
  close_out oc;
  let h = read_netd path in
  Alcotest.(check int) "two cells and one pad" 3 (H.num_vertices h);
  Alcotest.(check (array int)) "pad mapped after cells" [| 0; 1; 2 |]
    (Incidence.pins h 0)

let test_partition_roundtrip () =
  let path = tmp "hypart_test.part" in
  Io.write_partition path [| 0; 1; 1; 0; 1 |];
  let side = Io.read_partition path ~num_vertices:5 in
  Alcotest.(check (array int)) "roundtrip" [| 0; 1; 1; 0; 1 |] side

let test_partition_errors () =
  let path = tmp "hypart_test_bad.part" in
  let oc = open_out path in
  output_string oc "0\n2\n-1\n";
  close_out oc;
  Alcotest.check_raises "bad side" (Failure "parse") (fun () ->
      try ignore (Io.read_partition path ~num_vertices:3)
      with Io.Parse_error _ -> raise (Failure "parse"));
  Alcotest.check_raises "wrong count" (Failure "parse") (fun () ->
      try ignore (Io.read_partition path ~num_vertices:5)
      with Io.Parse_error _ -> raise (Failure "parse"))

(* property: every format round-trips arbitrary valid hypergraphs *)

let random_hypergraph seed =
  let module Rng = Hypart_rng.Rng in
  let rng = Rng.create seed in
  let nv = 2 + Rng.int rng 40 in
  let ne = 1 + Rng.int rng 80 in
  let edges =
    Array.init ne (fun _ ->
        Rng.sample_distinct rng ~n:(min nv (2 + Rng.int rng 4)) ~universe:nv)
  in
  let vertex_weights = Array.init nv (fun _ -> 1 + Rng.int rng 9) in
  let edge_weights = Array.init ne (fun _ -> 1 + Rng.int rng 5) in
  H.create ~vertex_weights ~edge_weights ~num_vertices:nv ~edges ()

let same_structure a b =
  H.num_vertices a = H.num_vertices b
  && H.num_edges a = H.num_edges b
  && (let ok = ref true in
      for e = 0 to H.num_edges a - 1 do
        if Incidence.pins a e <> Incidence.pins b e then ok := false
      done;
      !ok)

let prop_hgr_roundtrip =
  QCheck.Test.make ~name:"hgr roundtrips arbitrary hypergraphs" ~count:50
    QCheck.small_int
    (fun seed ->
      let h = random_hypergraph seed in
      let path = tmp "hypart_prop.hgr" in
      Io.write_hgr path h;
      let h' = Io.read_hgr path in
      same_structure h h'
      && Array.init (H.num_vertices h) (H.vertex_weight h)
         = Array.init (H.num_vertices h') (H.vertex_weight h'))

let prop_netd_roundtrip =
  QCheck.Test.make ~name:"netD roundtrips arbitrary hypergraphs" ~count:50
    QCheck.small_int
    (fun seed ->
      let h = random_hypergraph seed in
      let path = tmp "hypart_prop.netD" in
      Netlists.write_netd path h;
      let h' = read_netd path in
      same_structure h h')

let prop_bookshelf_roundtrip =
  QCheck.Test.make ~name:"bookshelf roundtrips arbitrary hypergraphs" ~count:50
    QCheck.small_int
    (fun seed ->
      let h = random_hypergraph seed in
      let basename = tmp "hypart_prop_bs" in
      Netlists.write_bookshelf ~basename h;
      let h' = read_bookshelf ~basename in
      same_structure h h')

(* ---------------- decoding from bytes ---------------- *)

module Fingerprint = Hypart_lab.Fingerprint
module Store = Hypart_hypergraph.Instance_store
module Rng = Hypart_rng.Rng

let format_of_index i = List.nth Io.formats (i mod List.length Io.formats)

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* [h] written in [format] under a per-format temp name; returns the
   path [Io.read] takes.  A Bookshelf .nodes file sometimes loses its
   final newline, which the wire convention restores. *)
let write_instance rng format h =
  let base = tmp "hypart_prop_decode" in
  let num_pads = Rng.int rng (1 + (H.num_vertices h / 4)) in
  match format with
  | Io.Hgr ->
    let path = base ^ ".hgr" in
    Io.write_hgr ~with_weights:(Rng.bool rng) path h;
    path
  | Io.Hgrb ->
    let path = base ^ ".hgrb" in
    Store.save path ~fingerprint:(Fingerprint.of_instance h) h;
    path
  | Io.Netd ->
    let path = base ^ ".netD" in
    Netlists.write_netd ~num_pads path h;
    path
  | Io.Bookshelf ->
    Netlists.write_bookshelf ~num_pads ~basename:base h;
    let nodes = base ^ ".nodes" in
    if Rng.bool rng then begin
      let text = read_bytes nodes in
      write_bytes nodes (String.sub text 0 (String.length text - 1))
    end;
    nodes

let csr h =
  H.Csr.
    ( edge_offset h,
      edge_pins h,
      vertex_offset h,
      vertex_edges h,
      vertex_weight h,
      edge_weight h )

let print_case (i, seed) =
  Printf.sprintf "%s, seed %d" (Io.format_tag (format_of_index i)) seed

let format_case = QCheck.(make ~print:print_case Gen.(pair (int_bound 3) nat))

(* (a) the bytes of a written file decode to the CSR and lab
   fingerprint that reading the file gives, in every format *)
let prop_decode_matches_read =
  QCheck.Test.make ~name:"decode of a file's bytes equals reading it"
    ~count:100 ~long_factor:100 format_case (fun (i, seed) ->
      let format = format_of_index i in
      let rng = Rng.create seed in
      let path = write_instance rng format (random_hypergraph seed) in
      let h, stored = Io.read format path in
      let h', stored' =
        Io.decode ~source:"<body>" format (Io.payload format path)
      in
      csr h = csr h'
      && stored = stored'
      && Fingerprint.of_instance h = Fingerprint.of_instance h')

(* (b) any mutation of a valid body decodes or fails with a located
   error: no other exception, no out-of-bounds read *)
let prop_decode_fuzz =
  QCheck.Test.make ~name:"mutated bodies decode or fail located" ~count:300
    ~long_factor:100 format_case (fun (i, seed) ->
      let format = format_of_index i in
      let rng = Rng.create seed in
      let path = write_instance rng format (random_hypergraph seed) in
      let body = Fuzz.mutate rng (Io.payload format path) in
      match Io.decode ~source:"<fuzz>" format body with
      | _ -> true
      | exception (Io.Parse_error msg | Store.Format_error msg) ->
        String.starts_with ~prefix:"<fuzz>:" msg
      | exception e ->
        QCheck.Test.fail_reportf "%s escaped" (Printexc.to_string e))

(* (c) a decoder keeps none of the bytes it reads: decoded from a slice
   of a buffer that is overwritten afterwards, an instance has the
   fingerprint (and the stored fingerprint) of a decode of an intact
   copy.  The line after the slice would add a net if it were read. *)
let prop_decode_keeps_no_bytes =
  QCheck.Test.make ~name:"a decode keeps none of its buffer" ~count:100
    ~long_factor:100 format_case (fun (i, seed) ->
      let format = format_of_index i in
      let rng = Rng.create seed in
      let body = Io.payload format (write_instance rng format (random_hypergraph seed)) in
      let buf = Bytes.of_string (body ^ "\n1 2\n") in
      let h, stored = Io.decode_bytes ~source:"<body>" format buf (String.length body) in
      Bytes.fill buf 0 (Bytes.length buf) '7';
      let h', stored' = Io.decode ~source:"<body>" format body in
      Fingerprint.of_instance h = Fingerprint.of_instance h' && stored = stored')

(* ---------------- string and file cursors ---------------- *)

(* The decoder reads a file in 64 KiB chunks into one reused buffer and
   scans a string in place.  A body and a file holding the same bytes
   must decode alike: same CSR, or the same located error. *)

let chunk = 65536

(* integer tokens around the fast path's edges: signs, radix prefixes,
   underscores, leading zeros, and 18 to 20 digits *)
let odd_tokens =
  [| "+5"; "0x1F"; "1_000"; "007"; "-0"; "-7"; "-"; "+"; "5-"; "1e3";
     "0b101"; "0o17"; "0u5"; "999999999999999999"; "1000000000000000000";
     "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
     "99999999999999999999"; "00000000000000000042" |]

let lines_of text =
  let l = String.split_on_char '\n' text in
  match List.rev l with "" :: rest -> List.rev rest | _ -> l

(* [text] re-laid out: blanks as tabs or runs, comment, blank and
   whitespace-only lines interleaved, and each of these at random: CRLF
   endings, no final newline, a leading comment sized to put the lines
   across a chunk edge, one comment line longer than a chunk.  Section
   header lines (Bookshelf's "UCLA ...") keep their exact text. *)
let relayout rng ~comment text =
  let b = Buffer.create (String.length text + (3 * chunk)) in
  let crlf = Rng.bool rng in
  let eol () = Buffer.add_string b (if crlf then "\r\n" else "\n") in
  let comment_line n =
    Buffer.add_char b comment;
    for i = 1 to n - 1 do
      Buffer.add_char b (if i mod 7 = 0 then ' ' else 'c')
    done;
    eol ()
  in
  (match Rng.int rng 3 with
   | 0 -> ()
   | k -> comment_line ((k * chunk) - Rng.int rng 64));
  let long_at = if Rng.bool rng then Rng.int rng 50 else -1 in
  List.iteri
    (fun i l ->
      if i = long_at then comment_line (chunk + 1 + Rng.int rng chunk);
      (match Rng.int rng 8 with
       | 0 -> eol ()
       | 1 -> Buffer.add_string b " \t "; eol ()
       | 2 -> comment_line (1 + Rng.int rng 20)
       | _ -> ());
      if String.starts_with ~prefix:"UCLA" l then Buffer.add_string b l
      else
        String.iter
          (fun ch ->
            if ch = ' ' then
              Buffer.add_string b
                (match Rng.int rng 4 with 0 -> "\t" | 1 -> " \t " | _ -> " ")
            else Buffer.add_char b ch)
          l;
      eol ())
    (lines_of text);
  let s = Buffer.contents b in
  if Rng.bool rng then s
  else String.sub s 0 (String.length s - if crlf then 2 else 1)

(* an .hgr edge line repeated past a chunk's length: the decoder drops
   the repeated pins, so the instance is unchanged *)
let lengthen_edge rng text =
  let lines = Array.of_list (lines_of text) in
  let i = 1 + Rng.int rng (max 1 (Array.length lines - 1)) in
  if i < Array.length lines then begin
    let pins =
      (* the fmt-11 line starts with the edge weight *)
      match String.index_opt lines.(i) ' ' with
      | Some j -> String.sub lines.(i) j (String.length lines.(i) - j)
      | None -> ""
    in
    if pins <> "" then begin
      let b = Buffer.create (chunk + 64) in
      Buffer.add_string b lines.(i);
      while Buffer.length b <= chunk do
        Buffer.add_string b pins
      done;
      lines.(i) <- Buffer.contents b
    end
  end;
  String.concat "\n" (Array.to_list lines) ^ "\n"

(* one integer token of a data line replaced by an odd one *)
let odd_token rng text =
  let lines = Array.of_list (lines_of text) in
  let i = Rng.int rng (Array.length lines) in
  let fields = Array.of_list (String.split_on_char ' ' lines.(i)) in
  let ints =
    List.filter
      (fun j -> int_of_string_opt fields.(j) <> None)
      (List.init (Array.length fields) Fun.id)
  in
  if ints <> [] then begin
    let j = List.nth ints (Rng.int rng (List.length ints)) in
    fields.(j) <- odd_tokens.(Rng.int rng (Array.length odd_tokens));
    lines.(i) <- String.concat " " (Array.to_list fields)
  end;
  String.concat "\n" (Array.to_list lines) ^ "\n"

(* [text] with the same lines and values, spelled so that the .hgr
   one-scan reader declines most lines: each integer token at random
   as "+x", with leading zeros or zero-padded to 19 to 22 digits;
   blanks as tabs or runs; trailing blanks; CRLF endings.  Comment and
   blank lines between data lines come from [relayout]. *)
let respell rng text =
  let b = Buffer.create (2 * String.length text) in
  let eol = if Rng.bool rng then "\r\n" else "\n" in
  let token f =
    if String.for_all (fun ch -> ch >= '0' && ch <= '9') f && int_of_string_opt f <> None
    then
      match Rng.int rng 4 with
      | 0 -> Buffer.add_char b '+'
      | 1 -> Buffer.add_string b (String.make (1 + Rng.int rng 3) '0')
      | 2 -> Buffer.add_string b (String.make (max 0 (19 + Rng.int rng 4 - String.length f)) '0')
      | _ -> ()
  in
  List.iter
    (fun l ->
      List.iteri
        (fun j f ->
          if j > 0 then
            Buffer.add_string b (match Rng.int rng 4 with 0 -> "\t" | 1 -> "  " | _ -> " ");
          token f;
          Buffer.add_string b f)
        (String.split_on_char ' ' l);
      if Rng.int rng 4 = 0 then Buffer.add_string b " \t";
      Buffer.add_string b eol)
    (lines_of text);
  Buffer.contents b

let outcome f =
  match f () with
  | h, _ -> Ok (csr h)
  | exception Io.Parse_error msg -> Error msg

let fingerprint_outcome text =
  match Io.decode ~source:"<body>" Io.Hgr text with
  | h, _ -> Ok (Fingerprint.of_instance h)
  | exception Io.Parse_error msg -> Error msg

let text_format i = List.nth [ Io.Hgr; Io.Netd; Io.Bookshelf ] (i mod 3)

let print_text_case (i, seed) =
  Printf.sprintf "%s, seed %d" (Io.format_tag (text_format i)) seed

let text_case = QCheck.(make ~print:print_text_case Gen.(pair (int_bound 2) nat))

(* A Bookshelf file pair and its body differ in more than the cursor: the
   body's .nets lines count on from its .nodes lines, and one size bounds
   both sections.  So a Bookshelf pair must decode to the same CSR or
   fail on both sides; .hgr and .netD must fail with the same message.
   An .hgr text is also respelled: respelled, it must decode to the plain
   text's fingerprint or fail with its message, at the same line; laid
   out anew as well, to that fingerprint or fail too. *)
let prop_string_file_cursors =
  QCheck.Test.make ~name:"a body and a file of the same bytes decode alike"
    ~count:100 ~long_factor:10 text_case (fun (i, seed) ->
      let format = text_format i in
      let rng = Rng.create seed in
      let h = random_hypergraph seed in
      let vary ~comment text =
        let text = if Rng.int rng 3 = 0 then odd_token rng text else text in
        relayout rng ~comment text
      in
      let base = tmp "hypart_prop_cursor" in
      match format with
      | Io.Bookshelf ->
        let num_pads = Rng.int rng (1 + (H.num_vertices h / 4)) in
        Netlists.write_bookshelf ~num_pads ~basename:base h;
        List.iter
          (fun ext ->
            let path = base ^ ext in
            write_bytes path (vary ~comment:'#' (read_bytes path)))
          [ ".nodes"; ".nets" ];
        let path = base ^ ".nodes" in
        let body = Io.payload Io.Bookshelf path in
        (match
           ( outcome (fun () -> Io.read Io.Bookshelf path),
             outcome (fun () -> Io.decode ~source:path Io.Bookshelf body) )
         with
         | Ok a, Ok b -> a = b
         | Error _, Error _ -> true
         | _ -> false)
      | _ ->
        let path = base ^ List.hd (Io.extensions format) in
        if format = Io.Hgr then Io.write_hgr ~with_weights:(Rng.bool rng) path h
        else Netlists.write_netd path h;
        let text = read_bytes path in
        let text =
          if format = Io.Hgr && Rng.int rng 4 = 0 then lengthen_edge rng text
          else text
        in
        let plain = if Rng.int rng 3 = 0 then odd_token rng text else text in
        let spelled = if format = Io.Hgr then respell rng plain else plain in
        let text = relayout rng ~comment:'%' spelled in
        write_bytes path text;
        outcome (fun () -> Io.read format path)
        = outcome (fun () -> Io.decode ~source:path format text)
        && (format <> Io.Hgr
           || fingerprint_outcome spelled = fingerprint_outcome plain
              &&
              match (fingerprint_outcome text, fingerprint_outcome plain) with
              | Ok a, Ok b -> a = b
              | Error _, Error _ -> true
              | _ -> false))

(* every token is accepted exactly when int_of_string_opt accepts it,
   with its value, from a body and from a file: an .hgr edge weight
   carries it, so the value shows in the decoded instance *)
let prop_int_tokens =
  let gen =
    QCheck.Gen.(
      oneof
        [
          oneofa odd_tokens;
          string_size ~gen:(oneofl (String.to_seq "0123456789-+_xob" |> List.of_seq))
            (int_range 1 22);
        ])
  in
  QCheck.Test.make ~name:"integer tokens parse as int_of_string_opt" ~count:500
    (QCheck.make ~print:Fun.id gen) (fun tok ->
      let path = tmp "hypart_prop_token.hgr" in
      let text = "1 2 1\n" ^ tok ^ " 1 2\n" in
      write_bytes path text;
      let expected =
        match int_of_string_opt tok with
        | None -> Error (Printf.sprintf "%s:2: expected integer, got %S" path tok)
        | Some w when w <= 0 ->
          Error (Printf.sprintf "%s:2: non-positive weight of edge 0" path)
        | Some w when w > 0x7FFFFFFF ->
          Error (Printf.sprintf "%s:2: edge weight exceeds int32" path)
        | Some w -> Ok w
      in
      let weight f =
        match f () with
        | h, _ -> Ok (H.edge_weight h 0)
        | exception Io.Parse_error msg -> Error msg
      in
      weight (fun () -> Io.read Io.Hgr path) = expected
      && weight (fun () -> Io.decode ~source:path Io.Hgr text) = expected)

(* A file is read in 64 KiB chunks, so a data line can start in one
   chunk and end in the next: the one-scan reader declines it at the
   chunk's end and the general reader refills.  The edge line starts 1
   to 8 bytes before the edge, which puts the edge inside a pin, after
   a blank or before the line's '\n'; the file reads as its body
   decodes. *)
let test_hgr_chunk_edge () =
  let header = "2 12 1\n" and edge = "3 12 4 1\n" in
  for back = 1 to String.length edge - 1 do
    let pad = chunk - back - String.length header - 1 in
    let body = header ^ "%" ^ String.make (pad - 1) 'c' ^ "\n" ^ edge ^ "7 2 3\n" in
    let path = tmp "hypart_test_chunk_edge.hgr" in
    write_bytes path body;
    let h = Io.read_hgr path in
    Alcotest.(check (array (array int))) "pins" [| [| 11; 3; 0 |]; [| 1; 2 |] |]
      (Array.init (H.num_edges h) (Incidence.pins h));
    Alcotest.(check (list int)) "edge weights" [ 3; 7 ] [ H.edge_weight h 0; H.edge_weight h 1 ];
    Alcotest.(check bool) "file reads as its body decodes" true
      (csr h = csr (fst (Io.decode ~source:"<body>" Io.Hgr body)))
  done

(* Decoding allocates nothing per line or per pin on the minor heap:
   the budget is a deterministic count of minor words per input byte
   on a 1.9 MB ibm18 twin, not a timing. *)
let ibm18_body =
  lazy
    (let h = Hypart_generator.Ibm_suite.instance ~scale:3.0 "ibm18" in
     let path = tmp "hypart_alloc_ibm18.hgr" in
     Io.write_hgr path h;
     (path, read_bytes path))

let test_alloc_budget () =
  let path, body = Lazy.force ibm18_body in
  let per_byte f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.minor_words () -. w0) /. float_of_int (String.length body)
  in
  let decode () = Io.decode ~source:"<body>" Io.Hgr body in
  let read () = Io.read_hgr path in
  Alcotest.(check bool) "same instance" true (csr (fst (decode ())) = csr (read ()));
  List.iter
    (fun (name, words) ->
      if words > 0.1 then
        Alcotest.failf "%s allocates %.3f minor words per byte (budget 0.1)" name
          words)
    [ ("decode Hgr", per_byte decode); ("read_hgr", per_byte read) ]

(* Major-heap words per body byte on the same twin, along the daemon's
   path from socket bytes to a parsed instance; deterministic counts,
   not timings.  The request goes through the HTTP parser's bytes entry
   point in the daemon's 64 KiB reads, into one doubling body buffer
   (0.40 when every read became a string and the body a Buffer).  The
   body then goes through the .hgr decoder, whose only O(V) array is the
   pin dedup mark (0.15 with a second mark and two transpose arrays). *)
let test_major_budget () =
  let _, body = Lazy.force ibm18_body in
  let n = String.length body in
  let per_byte f =
    let w0 = (Gc.quick_stat ()).Gc.major_words in
    ignore (Sys.opaque_identity (f ()));
    ((Gc.quick_stat ()).Gc.major_words -. w0) /. float_of_int n
  in
  let request =
    Printf.sprintf "POST /partition?format=hgr HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
      n body
  in
  let chunk = Bytes.create 65536 in
  let parse () =
    let p = Http.create_parser () in
    let rec go off =
      let len = min (Bytes.length chunk) (String.length request - off) in
      Bytes.blit_string request off chunk 0 len;
      match Http.feed_bytes p chunk 0 len with
      | `More -> go (off + len)
      | `Request r -> r
      | `Error _ -> Alcotest.fail "request refused"
    in
    go 0
  in
  let r = parse () in
  Alcotest.(check bool) "body intact" true
    (Bytes.sub_string r.Http.body 0 r.Http.body_length = body);
  let decode () = Io.decode ~source:"<body>" Io.Hgr body in
  List.iter
    (fun (name, budget, words) ->
      if words > budget then
        Alcotest.failf "%s allocates %.3f major words per body byte (budget %.2f)"
          name words budget)
    [ ("HTTP request", 0.26, per_byte parse); ("decode Hgr", 0.05, per_byte decode) ]

(* A second decode of the same twin on the same domain finds its pin
   buffer and dedup marks in the domain's scratch, so the instance's own
   arrays (off the heap) are all it allocates: 0.0375 words per byte
   when every decode allocated an O(V) mark array. *)
let test_second_decode_major_budget () =
  let _, body = Lazy.force ibm18_body in
  let decode () = Io.decode ~source:"<body>" Io.Hgr body in
  let first = fst (decode ()) in
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  let second = fst (Sys.opaque_identity (decode ())) in
  let words = ((Gc.quick_stat ()).Gc.major_words -. w0) /. float_of_int (String.length body) in
  Alcotest.(check bool) "same instance" true (csr first = csr second);
  if words > 0.005 then
    Alcotest.failf "a second decode allocates %.4f major words per body byte (budget 0.005)"
      words

(* ---------------- Bookshelf ---------------- *)

let bs_sample () =
  H.create ~num_vertices:5
    ~vertex_weights:[| 3; 1; 4; 1; 5 |]
    ~edges:[| [| 0; 1; 2 |]; [| 1; 3 |]; [| 2; 3; 4 |]; [| 0; 4 |] |]
    ()

let test_bs_roundtrip () =
  let h = bs_sample () in
  let basename = tmp "hypart_bs" in
  Netlists.write_bookshelf ~num_pads:2 ~basename h;
  let h' = read_bookshelf ~basename in
  Alcotest.(check int) "vertices" 5 (H.num_vertices h');
  Alcotest.(check int) "nets" 4 (H.num_edges h');
  for e = 0 to 3 do
    Alcotest.(check (array int)) "pins" (Incidence.pins h e) (Incidence.pins h' e)
  done;
  for v = 0 to 4 do
    Alcotest.(check int) "area from width" (H.vertex_weight h v)
      (H.vertex_weight h' v)
  done

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
  scan 0

let test_bs_terminal_marking () =
  let h = bs_sample () in
  let basename = tmp "hypart_bs_t" in
  Netlists.write_bookshelf ~num_pads:1 ~basename h;
  let contents = read_bytes (basename ^ ".nodes") in
  Alcotest.(check bool) "pad p0 is a terminal" true (contains contents "p0 5 1 terminal");
  Alcotest.(check bool) "counts present" true
    (contains contents "NumTerminals : 1");
  (* the reader puts the terminal after the cells, with its width *)
  let h' = read_bookshelf ~basename in
  Alcotest.(check int) "terminal is the last vertex" 5 (H.vertex_weight h' 4);
  Alcotest.(check (array int)) "nets reach it by id" (Incidence.pins h 3)
    (Incidence.pins h' 3)

let test_bs_malformed () =
  let write name content = write_bytes (tmp name) content in
  write "hypart_bs_bad.nodes" "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n  a0 1 1\n";
  write "hypart_bs_bad.nets" "UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n";
  Alcotest.check_raises "node count mismatch" (Failure "parse") (fun () ->
      try ignore (read_bookshelf ~basename:(tmp "hypart_bs_bad"))
      with Io.Parse_error _ -> raise (Failure "parse"));
  write "hypart_bs_bad2.nodes"
    "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n  a0 1 1\n";
  write "hypart_bs_bad2.nets"
    "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\nNetDegree : 2  n0\n  a0 B\n  a0 B\n";
  Alcotest.check_raises "pin count mismatch" (Failure "parse") (fun () ->
      try ignore (read_bookshelf ~basename:(tmp "hypart_bs_bad2"))
      with Io.Parse_error _ -> raise (Failure "parse"))

(* a body is the .nodes text then the .nets text; its diagnostics
   count lines from the start of the body *)
let test_bs_body_located () =
  let body =
    "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n  a0 1 1\n  a1 1 1\n\
     UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2  n0\n  a0 B\n\
    \  a9 B\n"
  in
  match Io.decode ~source:"<body>" Io.Bookshelf body with
  | exception Io.Parse_error msg ->
    Alcotest.(check string) "line 11 of the body"
      "<body>:11: node \"a9\" out of range" msg
  | _ -> Alcotest.fail "expected Parse_error"

(* the coordinates of a written .pl file: the "UCLA pl 1.0" header,
   then one "a<i> x y : N" row per cell, in cell order *)
let pl_coordinates path =
  match file_lines path with
  | header :: rows ->
    Alcotest.(check string) "pl header" "UCLA pl 1.0" header;
    let rows =
      List.mapi
        (fun v row ->
          match String.split_on_char ' ' (String.trim row) |> List.filter (( <> ) "") with
          | [ name; x; y; ":"; "N" ] ->
            Alcotest.(check string) "cell name" (Printf.sprintf "a%d" v) name;
            (float_of_string x, float_of_string y)
          | _ -> Alcotest.failf "bad pl row %S" row)
        rows
    in
    (Array.of_list (List.map fst rows), Array.of_list (List.map snd rows))
  | [] -> Alcotest.fail "empty pl file"

let test_bs_pl_roundtrip () =
  let basename = tmp "hypart_bs_pl" in
  let x = [| 1.5; 2.25; 0.0 |] and y = [| 10.0; 0.5; 3.75 |] in
  Io.write_pl ~basename ~x ~y;
  let x', y' = pl_coordinates (basename ^ ".pl") in
  for v = 0 to 2 do
    Alcotest.(check (float 1e-3)) "x" x.(v) x'.(v);
    Alcotest.(check (float 1e-3)) "y" y.(v) y'.(v)
  done

let test_bs_pl_from_placement () =
  (* export a real placement and read it back *)
  let h = Hypart_generator.Ibm_suite.instance ~scale:64.0 "ibm01" in
  let pl = Hypart_placement.Topdown.place (Hypart_rng.Rng.create 1) h in
  let basename = tmp "hypart_bs_place" in
  Io.write_pl ~basename ~x:pl.Hypart_placement.Topdown.x
    ~y:pl.Hypart_placement.Topdown.y;
  let x, _ = pl_coordinates (basename ^ ".pl") in
  Alcotest.(check int) "all cells present" (H.num_vertices h) (Array.length x)

let test_format_table () =
  List.iter
    (fun f ->
      List.iter
        (fun ext ->
          Alcotest.(check bool)
            ("extension " ^ ext) true
            (Io.format_of_path ("dir/x" ^ ext) = Some f))
        (Io.extensions f))
    Io.formats;
  Alcotest.(check (list string)) "wire tags" [ "hgr"; "hgrb"; "netd"; "bookshelf" ]
    (List.map Io.format_tag Io.formats);
  Alcotest.(check bool) "suite name" true (Io.format_of_path "ibm01" = None);
  Alcotest.(check bool) "delta" true (Io.format_of_path "x.hgrd" = None)

let () =
  Alcotest.run "netlist_io"
    [
      ( "hgr",
        [
          Alcotest.test_case "roundtrip weighted" `Quick test_hgr_roundtrip_weighted;
          Alcotest.test_case "roundtrip unweighted" `Quick test_hgr_roundtrip_unweighted;
          Alcotest.test_case "comments and fmt 1" `Quick test_hgr_comments_and_fmt1;
          Alcotest.test_case "malformed inputs" `Quick test_hgr_errors;
          Alcotest.test_case "CRLF, blanks, tabs" `Quick test_hgr_crlf_and_blanks;
          Alcotest.test_case "located errors" `Quick test_hgr_located_errors;
          Alcotest.test_case "stale dedup marks" `Quick test_hgr_stale_marks;
          Alcotest.test_case "vertex count bound" `Quick test_hgr_vertex_count_bound;
          Alcotest.test_case "data line across a chunk edge" `Quick test_hgr_chunk_edge;
        ] );
      ( "are",
        [
          Alcotest.test_case "roundtrip" `Quick test_are_roundtrip;
        ] );
      ( "netd",
        [
          Alcotest.test_case "roundtrip" `Quick test_netd_roundtrip;
          Alcotest.test_case "header checks" `Quick test_netd_header_checks;
          Alcotest.test_case "pad mapping" `Quick test_netd_pads_mapped;
        ] );
      ( "bookshelf",
        [
          Alcotest.test_case "roundtrip" `Quick test_bs_roundtrip;
          Alcotest.test_case "terminal marking" `Quick test_bs_terminal_marking;
          Alcotest.test_case "malformed" `Quick test_bs_malformed;
          Alcotest.test_case "body located errors" `Quick test_bs_body_located;
          Alcotest.test_case "pl roundtrip" `Quick test_bs_pl_roundtrip;
          Alcotest.test_case "pl from placement" `Quick test_bs_pl_from_placement;
        ] );
      ( "partition files",
        [
          Alcotest.test_case "roundtrip" `Quick test_partition_roundtrip;
          Alcotest.test_case "errors" `Quick test_partition_errors;
        ] );
      ("formats", [ Alcotest.test_case "table" `Quick test_format_table ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_hgr_roundtrip;
          QCheck_alcotest.to_alcotest prop_netd_roundtrip;
          QCheck_alcotest.to_alcotest prop_bookshelf_roundtrip;
          QCheck_alcotest.to_alcotest prop_decode_matches_read;
          QCheck_alcotest.to_alcotest prop_decode_fuzz;
          QCheck_alcotest.to_alcotest prop_decode_keeps_no_bytes;
          QCheck_alcotest.to_alcotest prop_string_file_cursors;
          QCheck_alcotest.to_alcotest prop_int_tokens;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "budget" `Quick test_alloc_budget;
          Alcotest.test_case "major budget" `Quick test_major_budget;
          Alcotest.test_case "second decode major budget" `Quick
            test_second_decode_major_budget;
        ] );
    ]
