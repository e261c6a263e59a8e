exception Parse_error of string

let parse_error path line fmt =
  Printf.ksprintf
    (fun msg -> raise (Parse_error (Printf.sprintf "%s:%d: %s" path line msg)))
    fmt

(* a diagnostic about the input as a whole (a count that disagrees, a
   missing section) has no line to point at *)
let input_error path fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (path ^ ": " ^ msg))) fmt

let with_out path f =
  let oc = open_out path in
  (try f oc with e -> close_out_noerr oc; raise e);
  close_out oc

let max_i32 = 0x7FFFFFFF

(* ---------------- the line cursor ---------------- *)

(* Every reader pulls its data lines from one cursor, over either a
   string (a request body) or a channel (a file, read line by line and
   never slurped, so a million-vertex file streams in bounded memory).
   [String.trim] strips the '\r' of CRLF line endings along with
   surrounding blanks; blank lines and comment lines (['%'], or ['#'] in
   Bookshelf) are skipped but still counted, so a diagnostic names the
   physical line — of the file, or of the whole body. *)

type cursor = {
  source : string;  (** the file name or ["<body>"], for diagnostics *)
  read_line : unit -> string option;  (** the next physical line *)
  comment : char;
  size : int;  (** bytes in the input: no count of lines can exceed it *)
  mutable line : int;
}

(* the next data line with its 1-based line number *)
let rec next c =
  match c.read_line () with
  | None -> None
  | Some l ->
    c.line <- c.line + 1;
    let l = String.trim l in
    if l = "" || l.[0] = c.comment then next c else Some (c.line, l)

let next_or c what =
  match next c with Some x -> x | None -> input_error c.source "%s" what

let rec iter_lines c f =
  match next c with
  | None -> ()
  | Some (lineno, l) ->
    f lineno l;
    iter_lines c f

let string_cursor ?(comment = '%') ~source text =
  let pos = ref 0 and size = String.length text in
  let read_line () =
    if !pos >= size then None
    else begin
      let stop = Option.value ~default:size (String.index_from_opt text !pos '\n') in
      let l = String.sub text !pos (stop - !pos) in
      pos := stop + 1;
      Some l
    end
  in
  { source; read_line; comment; size; line = 0 }

let with_file ?(comment = '%') path f =
  let ic = try open_in path with Sys_error msg -> raise (Parse_error msg) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = try in_channel_length ic with Sys_error _ -> max_int in
      let read_line () = In_channel.input_line ic in
      f { source = path; read_line; comment; size; line = 0 })

(* a count of lines still to come: it must fit in the input, so a
   corrupt header is a located error rather than a huge allocation *)
let check_lines c lineno what n =
  if n < 0 || n > c.size then parse_error c.source lineno "%s %d out of range" what n

(* Split a data line on runs of blanks — spaces or tabs (files in the
   wild use both). *)
let fields_of_line l =
  String.split_on_char ' ' l
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let is_blank c = c = ' ' || c = '\t'

(* Apply [f] to each integer token of a data line, left to right,
   without building an intermediate list of tokens. *)
let iter_ints path lineno line f =
  let n = String.length line in
  let i = ref 0 in
  while !i < n do
    while !i < n && is_blank line.[!i] do
      incr i
    done;
    if !i < n then begin
      let start = !i in
      while !i < n && not (is_blank line.[!i]) do
        incr i
      done;
      let tok = String.sub line start (!i - start) in
      match int_of_string_opt tok with
      | Some v -> f v
      | None -> parse_error path lineno "expected integer, got %S" tok
    end
  done

(* Growable int32 vector: doubling push, zero-copy view of the filled
   prefix at the end. *)
module Buf32 = struct
  type t = { mutable data : Hypergraph.i32; mutable len : int }

  let create capacity =
    {
      data =
        Bigarray.Array1.create Bigarray.Int32 Bigarray.c_layout (max capacity 16);
      len = 0;
    }

  let push b x =
    let cap = Bigarray.Array1.dim b.data in
    if b.len = cap then begin
      let grown = Bigarray.Array1.create Bigarray.Int32 Bigarray.c_layout (2 * cap) in
      Bigarray.Array1.blit b.data (Bigarray.Array1.sub grown 0 cap);
      b.data <- grown
    end;
    Bigarray.Array1.unsafe_set b.data b.len (Int32.of_int x);
    b.len <- b.len + 1

  let contents b = Bigarray.Array1.sub b.data 0 b.len
end

(* ---------------- hMetis .hgr ---------------- *)

let write_hgr ?(with_weights = true) path h =
  with_out path (fun oc ->
      let ne = Hypergraph.num_edges h and nv = Hypergraph.num_vertices h in
      if with_weights then Printf.fprintf oc "%d %d 11\n" ne nv
      else Printf.fprintf oc "%d %d\n" ne nv;
      for e = 0 to ne - 1 do
        if with_weights then Printf.fprintf oc "%d" (Hypergraph.edge_weight h e);
        let first = ref (not with_weights) in
        Hypergraph.iter_pins h e (fun v ->
            if !first then begin
              Printf.fprintf oc "%d" (v + 1);
              first := false
            end
            else Printf.fprintf oc " %d" (v + 1));
        output_char oc '\n'
      done;
      if with_weights then
        for v = 0 to nv - 1 do
          Printf.fprintf oc "%d\n" (Hypergraph.vertex_weight h v)
        done)

(* Single pass: only the current line plus the growing CSR is held in
   memory. *)
let hgr_of_cursor c =
  let path = c.source in
  let hline, header = next_or c "empty file" in
  let counts = ref [] in
  iter_ints path hline header (fun x -> counts := x :: !counts);
  let ne, nv, fmt =
    match List.rev !counts with
    | [ ne; nv ] -> (ne, nv, 0)
    | [ ne; nv; fmt ] -> (ne, nv, fmt)
    | _ -> parse_error path hline "bad header"
  in
  (* validate the counts here, with a location, rather than letting a
     negative value escape as a bare Invalid_argument from Array.make *)
  if ne < 0 then parse_error path hline "negative edge count %d" ne;
  if nv < 0 then parse_error path hline "negative vertex count %d" nv;
  if nv > max_i32 then parse_error path hline "vertex count %d exceeds int32" nv;
  if fmt <> 0 && fmt <> 1 && fmt <> 10 && fmt <> 11 then
    parse_error path hline "unsupported fmt %d" fmt;
  let has_ew = fmt = 1 || fmt = 11 in
  let has_vw = fmt = 10 || fmt = 11 in
  let expected = ne + if has_vw then nv else 0 in
  check_lines c hline "data line count" expected;
  let missing found =
    input_error path "expected %d data lines, found %d" expected found
  in
  let edge_offset =
    Bigarray.Array1.create Bigarray.Int32 Bigarray.c_layout (ne + 1)
  in
  Bigarray.Array1.set edge_offset 0 0l;
  let edge_weight = Bigarray.Array1.create Bigarray.Int32 Bigarray.c_layout ne in
  (* VLSI netlists average ~4 pins per net; the buffer doubles if the
     guess is short *)
  let pins = Buf32.create (4 * ne) in
  (* timestamped per-edge pin dedup, same first-occurrence semantics
     as Hypergraph.create *)
  let mark = Array.make (max nv 1) (-1) in
  for e = 0 to ne - 1 do
    match next c with
    | None -> missing e
    | Some (lineno, l) ->
      let w = ref 1 and want_weight = ref has_ew and npins = ref 0 in
      iter_ints path lineno l (fun x ->
          if !want_weight then begin
            w := x;
            want_weight := false
          end
          else begin
            if x < 1 || x > nv then parse_error path lineno "pin %d out of range" x;
            let v = x - 1 in
            if mark.(v) <> e then begin
              mark.(v) <- e;
              Buf32.push pins v;
              incr npins
            end
          end);
      if !want_weight then parse_error path lineno "empty edge line";
      if !npins = 0 then parse_error path lineno "edge with no pins";
      if !w <= 0 then parse_error path lineno "non-positive weight of edge %d" e;
      if !w > max_i32 then parse_error path lineno "edge weight exceeds int32";
      Bigarray.Array1.set edge_weight e (Int32.of_int !w);
      Bigarray.Array1.set edge_offset (e + 1) (Int32.of_int pins.Buf32.len)
  done;
  let vertex_weight = Bigarray.Array1.create Bigarray.Int32 Bigarray.c_layout nv in
  Bigarray.Array1.fill vertex_weight 1l;
  if has_vw then
    for v = 0 to nv - 1 do
      match next c with
      | None -> missing (ne + v)
      | Some (lineno, l) ->
        let count = ref 0 and w = ref 1 in
        iter_ints path lineno l (fun x ->
            incr count;
            w := x);
        if !count <> 1 then parse_error path lineno "expected one vertex weight";
        if !w <= 0 then parse_error path lineno "non-positive weight of vertex %d" v;
        if !w > max_i32 then parse_error path lineno "vertex weight exceeds int32";
        Bigarray.Array1.set vertex_weight v (Int32.of_int !w)
    done;
  Hypergraph.of_int32_csr ~num_vertices:nv ~edge_offset
    ~edge_pins:(Buf32.contents pins) ~vertex_weight ~edge_weight

let read_hgr path = with_file path hgr_of_cursor

(* ---------------- cell names ---------------- *)

(* Cells are named [a<i>] and pads [p<j>]; pad [j] is vertex
   [num_cells + j].  Shared by .netD, .are and Bookshelf. *)
let vertex_name ~num_cells v =
  if v < num_cells then Printf.sprintf "a%d" v
  else Printf.sprintf "p%d" (v - num_cells)

let vertex_of_name path lineno ~num_cells ~num_pads name =
  let id =
    if String.length name < 2 then None
    else int_of_string_opt (String.sub name 1 (String.length name - 1))
  in
  match (name.[0], id) with
  | 'a', Some id when id >= 0 && id < num_cells -> id
  | 'p', Some id when id >= 0 && id < num_pads -> num_cells + id
  | ('a' | 'p'), Some _ -> parse_error path lineno "node %S out of range" name
  | _ -> parse_error path lineno "bad node name %S" name

(* ---------------- ISPD98 .are ---------------- *)

let write_are path h =
  with_out path (fun oc ->
      for v = 0 to Hypergraph.num_vertices h - 1 do
        Printf.fprintf oc "a%d %d\n" v (Hypergraph.vertex_weight h v)
      done)

(* an area row names a cell [a<i>] or, by its vertex id, a pad [p<i>] *)
let read_are path ~num_vertices =
  let areas = Array.make num_vertices 1 in
  with_file path (fun c ->
      iter_lines c (fun lineno l ->
          match fields_of_line l with
          | [ name; area ] -> (
            let id =
              match name.[0] with
              | 'p' -> vertex_of_name path lineno ~num_cells:0 ~num_pads:num_vertices name
              | _ -> vertex_of_name path lineno ~num_cells:num_vertices ~num_pads:0 name
            in
            match int_of_string_opt area with
            | Some a when a > 0 && a <= max_i32 -> areas.(id) <- a
            | Some _ -> parse_error path lineno "area %s out of range" area
            | None -> parse_error path lineno "bad area %S" area)
          | _ -> parse_error path lineno "expected \"<name> <area>\""));
  areas

let read_hgr_with_are ~hgr ~are =
  let h = read_hgr hgr in
  let nv = Hypergraph.num_vertices h in
  let areas = read_are are ~num_vertices:nv in
  (* overlay the areas on the shared incidence structure instead of
     rebuilding the CSR from copied pin arrays *)
  Hypergraph.with_vertex_weights h ~weights:areas

(* ---------------- ISPD98 .netD ---------------- *)

let write_netd ?(num_pads = 0) path h =
  let nv = Hypergraph.num_vertices h in
  if num_pads < 0 || num_pads > nv then
    invalid_arg "Netlist_io.write_netd: bad pad count";
  let num_cells = nv - num_pads in
  with_out path (fun oc ->
      Printf.fprintf oc "0\n%d\n%d\n%d\n%d\n" (Hypergraph.num_pins h)
        (Hypergraph.num_edges h) nv num_cells;
      for e = 0 to Hypergraph.num_edges h - 1 do
        let first = ref true in
        Hypergraph.iter_pins h e (fun v ->
            Printf.fprintf oc "%s %c\n" (vertex_name ~num_cells v)
              (if !first then 's' else 'l');
            first := false)
      done)

let netd_of_cursor c =
  let path = c.source in
  let header () =
    let lineno, s = next_or c "truncated .netD header" in
    match int_of_string_opt s with
    | Some v -> (lineno, v)
    | None -> parse_error path lineno "expected integer header, got %S" s
  in
  (match header () with
   | _, 0 -> ()
   | lineno, v -> parse_error path lineno "expected .netD header 0, got %d" v);
  let l2, num_pins = header () in
  let l3, num_nets = header () in
  let l4, num_modules = header () in
  let l5, pad_offset = header () in
  check_lines c l2 "pin count" num_pins;
  check_lines c l3 "net count" num_nets;
  if num_modules < 0 || num_modules > max_i32 then
    parse_error path l4 "module count %d out of range" num_modules;
  if pad_offset < 0 || pad_offset > num_modules then
    parse_error path l5 "pad offset %d out of range" pad_offset;
  let num_pads = num_modules - pad_offset in
  let nets = ref [] and current = ref [] and found = ref 0 in
  iter_lines c (fun lineno l ->
      incr found;
      match fields_of_line l with
      | name :: flag :: _ -> (
        let v = vertex_of_name path lineno ~num_cells:pad_offset ~num_pads name in
        match flag with
        | "s" ->
          if !current <> [] then nets := List.rev !current :: !nets;
          current := [ v ]
        | "l" ->
          if !current = [] then
            parse_error path lineno "continuation before any net start";
          current := v :: !current
        | other -> parse_error path lineno "bad pin flag %S" other)
      | _ -> parse_error path lineno "expected \"<name> <s|l> [dir]\"");
  if !found <> num_pins then
    input_error path "expected %d pin lines, found %d" num_pins !found;
  if !current <> [] then nets := List.rev !current :: !nets;
  let nets = List.rev !nets in
  if List.length nets <> num_nets then
    input_error path "header promised %d nets, found %d" num_nets (List.length nets);
  let edges = Array.of_list (List.map Array.of_list nets) in
  (Hypergraph.create ~num_vertices:num_modules ~edges (), num_pads)

let read_netd path = with_file path netd_of_cursor

(* ---------------- UCLA Bookshelf ---------------- *)

let bookshelf_comment = '#'

(* expects "Key : value" *)
let header_count path lineno key l =
  match fields_of_line l with
  | [ k; ":"; v ] when k = key -> (
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> parse_error path lineno "bad %s value %S" key v)
  | _ -> parse_error path lineno "expected \"%s : <n>\"" key

let expect_header c what magic =
  let lineno, l = next_or c ("missing " ^ what ^ " section") in
  if l <> magic then parse_error c.source lineno "bad %s header" what

let write_bookshelf ?(num_pads = 0) ~basename h =
  let nv = Hypergraph.num_vertices h in
  if num_pads < 0 || num_pads > nv then
    invalid_arg "Netlist_io.write_bookshelf: bad pad count";
  let num_cells = nv - num_pads in
  with_out (basename ^ ".nodes") (fun oc ->
      output_string oc "UCLA nodes 1.0\n";
      Printf.fprintf oc "NumNodes : %d\n" nv;
      Printf.fprintf oc "NumTerminals : %d\n" num_pads;
      for v = 0 to nv - 1 do
        Printf.fprintf oc "  %s %d 1%s\n" (vertex_name ~num_cells v)
          (Hypergraph.vertex_weight h v)
          (if v >= num_cells then " terminal" else "")
      done);
  with_out (basename ^ ".nets") (fun oc ->
      output_string oc "UCLA nets 1.0\n";
      Printf.fprintf oc "NumNets : %d\n" (Hypergraph.num_edges h);
      Printf.fprintf oc "NumPins : %d\n" (Hypergraph.num_pins h);
      for e = 0 to Hypergraph.num_edges h - 1 do
        Printf.fprintf oc "NetDegree : %d  n%d\n" (Hypergraph.edge_size h e) e;
        Hypergraph.iter_pins h e (fun v ->
            Printf.fprintf oc "  %s B\n" (vertex_name ~num_cells v))
      done)

(* the .nodes section: vertex count, terminal count, cell widths *)
let nodes_of_cursor c =
  let path = c.source in
  expect_header c ".nodes" "UCLA nodes 1.0";
  let l2, s = next_or c "truncated .nodes header" in
  let nv = header_count path l2 "NumNodes" s in
  check_lines c l2 "NumNodes" nv;
  let l3, s = next_or c "truncated .nodes header" in
  let num_pads = header_count path l3 "NumTerminals" s in
  if num_pads > nv then parse_error path l3 "NumTerminals %d exceeds NumNodes" num_pads;
  let num_cells = nv - num_pads in
  let widths = Array.make nv 1 in
  for i = 0 to nv - 1 do
    match next c with
    | None -> input_error path "expected %d node lines, found %d" nv i
    | Some (lineno, l) -> (
      match fields_of_line l with
      | name :: width :: _ -> (
        let v = vertex_of_name path lineno ~num_cells ~num_pads name in
        match int_of_string_opt width with
        | Some w when w > 0 && w <= max_i32 -> widths.(v) <- w
        | _ -> parse_error path lineno "bad width %S" width)
      | _ -> parse_error path lineno "expected \"name width height\"")
  done;
  (nv, num_pads, widths)

(* the .nets section, up to its last promised net *)
let nets_of_cursor c ~num_cells ~num_pads =
  let path = c.source in
  expect_header c ".nets" "UCLA nets 1.0";
  let l2, s = next_or c "truncated .nets header" in
  let num_nets = header_count path l2 "NumNets" s in
  check_lines c l2 "NumNets" num_nets;
  let l3, s = next_or c "truncated .nets header" in
  let num_pins = header_count path l3 "NumPins" s in
  let total_pins = ref 0 in
  let nets =
    Array.init num_nets (fun _ ->
        let lineno, l = next_or c "fewer nets than promised" in
        match fields_of_line l with
        | "NetDegree" :: ":" :: d :: _ ->
          let d =
            match int_of_string_opt d with
            | Some d when d >= 1 && d <= c.size -> d
            | _ -> parse_error path lineno "bad net degree %S" d
          in
          total_pins := !total_pins + d;
          Array.init d (fun _ ->
              let lineno, l = next_or c "truncated net pin list" in
              match fields_of_line l with
              | name :: _ -> vertex_of_name path lineno ~num_cells ~num_pads name
              | [] -> parse_error path lineno "empty pin line")
        | _ -> parse_error path lineno "expected \"NetDegree : d\"")
  in
  if !total_pins <> num_pins then
    input_error path "header promised %d pins, found %d" num_pins !total_pins;
  nets

let bookshelf_hypergraph (nv, num_pads, widths) edges =
  (Hypergraph.create ~vertex_weights:widths ~num_vertices:nv ~edges (), num_pads)

let read_bookshelf ~basename =
  let ((nv, num_pads, _) as nodes) =
    with_file ~comment:bookshelf_comment (basename ^ ".nodes") (fun c ->
        let nodes = nodes_of_cursor c in
        (match next c with
         | Some (lineno, _) -> parse_error c.source lineno "more node lines than NumNodes"
         | None -> ());
        nodes)
  in
  let edges =
    with_file ~comment:bookshelf_comment (basename ^ ".nets")
      (nets_of_cursor ~num_cells:(nv - num_pads) ~num_pads)
  in
  bookshelf_hypergraph nodes edges

(* one body: the .nodes section, then the .nets section *)
let bookshelf_of_cursor c =
  let ((nv, num_pads, _) as nodes) = nodes_of_cursor c in
  bookshelf_hypergraph nodes (nets_of_cursor c ~num_cells:(nv - num_pads) ~num_pads)

let write_pl ~basename ~x ~y =
  if Array.length x <> Array.length y then
    invalid_arg "Netlist_io.write_pl: coordinate arrays disagree";
  with_out (basename ^ ".pl") (fun oc ->
      output_string oc "UCLA pl 1.0\n";
      Array.iteri
        (fun v _ -> Printf.fprintf oc "  a%d %.4f %.4f : N\n" v x.(v) y.(v))
        x)

let read_pl path ~num_vertices =
  let x = Array.make num_vertices 0.0 and y = Array.make num_vertices 0.0 in
  with_file ~comment:bookshelf_comment path (fun c ->
      expect_header c ".pl" "UCLA pl 1.0";
      iter_lines c (fun lineno l ->
          match fields_of_line l with
          | name :: xs :: ys :: _ -> (
            let v = vertex_of_name path lineno ~num_cells:num_vertices ~num_pads:0 name in
            match (float_of_string_opt xs, float_of_string_opt ys) with
            | Some xv, Some yv ->
              x.(v) <- xv;
              y.(v) <- yv
            | _ -> parse_error path lineno "bad coordinates")
          | _ -> parse_error path lineno "expected \"name x y : orient\""));
  (x, y)

(* ---------------- partition files ---------------- *)

let write_partition path side =
  with_out path (fun oc ->
      Array.iter (fun s -> Printf.fprintf oc "%d\n" s) side)

let read_partition path ~num_vertices =
  let side = Array.make num_vertices 0 in
  let found = ref 0 in
  with_file path (fun c ->
      iter_lines c (fun lineno l ->
          if !found < num_vertices then
            side.(!found) <-
              (match int_of_string_opt l with
               | Some s when s >= 0 -> s
               | Some _ -> parse_error path lineno "side must be nonnegative"
               | None -> parse_error path lineno "bad side %S" l);
          incr found));
  if !found <> num_vertices then
    input_error path "expected %d lines, found %d" num_vertices !found;
  side

(* ---------------- the instance formats ---------------- *)

type format = Hgr | Hgrb | Netd | Bookshelf

let formats = [ Hgr; Hgrb; Netd; Bookshelf ]

(* the wire tag and the path extensions of each format *)
let spec = function
  | Hgr -> ("hgr", [ ".hgr" ])
  | Hgrb -> ("hgrb", [ ".hgrb" ])
  | Netd -> ("netd", [ ".netD"; ".netd" ])
  | Bookshelf -> ("bookshelf", [ ".nodes" ])

let format_tag f = fst (spec f)
let extensions f = snd (spec f)

let format_of_path path =
  List.find_opt
    (fun f -> List.exists (Filename.check_suffix path) (extensions f))
    formats

let read format path =
  match format with
  | Hgr -> (read_hgr path, None)
  | Hgrb ->
    let h, fingerprint = Instance_store.load path in
    (h, Some fingerprint)
  | Netd -> (fst (read_netd path), None)
  | Bookshelf ->
    (fst (read_bookshelf ~basename:(Filename.remove_extension path)), None)

let decode ~source format body =
  match format with
  | Hgr -> (hgr_of_cursor (string_cursor ~source body), None)
  | Hgrb ->
    let h, fingerprint = Instance_store.of_string ~source body in
    (h, Some fingerprint)
  | Netd -> (fst (netd_of_cursor (string_cursor ~source body)), None)
  | Bookshelf ->
    ( fst
        (bookshelf_of_cursor
           (string_cursor ~comment:bookshelf_comment ~source body)),
      None )

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> raise (Parse_error msg)

let payload format path =
  match format with
  | Hgr | Hgrb | Netd -> read_file path
  | Bookshelf ->
    let base = Filename.remove_extension path in
    let nodes = read_file (base ^ ".nodes") in
    (* the .nets section starts on a line of its own *)
    let sep = if String.ends_with ~suffix:"\n" nodes then "" else "\n" in
    nodes ^ sep ^ read_file (base ^ ".nets")
