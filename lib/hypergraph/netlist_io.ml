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

(* Every reader pulls its data lines from one cursor.  A string (a
   request body) is scanned where it lies; a file is read in [chunk]-byte
   pieces into one buffer the cursor reuses, so a million-vertex file
   streams in memory bounded by the chunk and the longest line and is
   never slurped.  The current data line is a slice of that buffer:
   integer readers scan it in place, and only readers that need names
   copy it out ({!line}, {!fields}).  Trimming strips what [String.trim]
   strips, including the '\r' of CRLF line endings; blank lines and
   comment lines (['%'], or ['#'] in Bookshelf) are skipped but still
   counted, so a diagnostic names the physical line — of the file, or of
   the whole body. *)

let chunk = 65536

type cursor = {
  source : string;  (** the file name or ["<body>"], for diagnostics *)
  comment : char;
  size : int;  (** bytes in the input: no count of lines can exceed it *)
  mutable input : in_channel option;  (** [None] once [buf] holds the rest *)
  mutable buf : Bytes.t;
  mutable len : int;  (** bytes of [buf] that hold input *)
  mutable pos : int;  (** where the next physical line starts in [buf] *)
  mutable line : int;  (** physical number of the current line *)
  mutable start : int;  (** the current data line is [buf.[start .. stop-1]] *)
  mutable stop : int;
  mutable tok : int;  (** where {!next_int} resumes in the current line *)
  mutable value : int;  (** the integer {!next_int} scanned last *)
}

let make ~source ~comment ~size ~input ~buf ~len =
  {
    source;
    comment;
    size;
    input;
    buf;
    len;
    pos = 0;
    line = 0;
    start = 0;
    stop = 0;
    tok = 0;
    value = 0;
  }

let string_cursor ?(comment = '%') ~source text =
  (* never written: only a file cursor refills its buffer *)
  make ~source ~comment ~size:(String.length text) ~input:None
    ~buf:(Bytes.unsafe_of_string text) ~len:(String.length text)

let with_file ?(comment = '%') path f =
  let ic = try open_in_bin path with Sys_error msg -> raise (Parse_error msg) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = try in_channel_length ic with Sys_error _ -> max_int in
      f
        (make ~source:path ~comment ~size ~input:(Some ic)
           ~buf:(Bytes.create chunk) ~len:0))

(* Move the unread tail [pos, len) to the front of the buffer, doubling
   it when a line fills it whole, and read more input behind it; [false]
   at the end of the input. *)
let refill c =
  match c.input with
  | None -> false
  | Some ic ->
    let keep = c.len - c.pos in
    if keep = Bytes.length c.buf then begin
      let grown = Bytes.create (2 * keep) in
      Bytes.blit c.buf c.pos grown 0 keep;
      c.buf <- grown
    end
    else Bytes.blit c.buf c.pos c.buf 0 keep;
    c.pos <- 0;
    let n = input ic c.buf keep (Bytes.length c.buf - keep) in
    c.len <- keep + n;
    if n = 0 then c.input <- None;
    n > 0

(* the next physical line as [start, stop), without its '\n'; [from] is
   where the search for the '\n' resumes *)
let rec next_physical c from =
  let buf = c.buf and len = c.len in
  let i = ref from in
  while !i < len && Bytes.unsafe_get buf !i <> '\n' do
    incr i
  done;
  if !i < len then begin
    c.start <- c.pos;
    c.stop <- !i;
    c.pos <- !i + 1;
    true
  end
  else begin
    let scanned = len - c.pos in
    if refill c then next_physical c scanned
    else if c.pos < c.len then begin
      (* a last line without its '\n' *)
      c.start <- c.pos;
      c.stop <- c.len;
      c.pos <- c.len;
      true
    end
    else false
  end

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* advance to the next data line; [false] at the end of the input *)
let rec next c =
  next_physical c c.pos
  && begin
    c.line <- c.line + 1;
    let buf = c.buf in
    let s = ref c.start and e = ref c.stop in
    while !s < !e && is_space (Bytes.unsafe_get buf !s) do
      incr s
    done;
    while !e > !s && is_space (Bytes.unsafe_get buf (!e - 1)) do
      decr e
    done;
    if !s = !e || Bytes.unsafe_get buf !s = c.comment then next c
    else begin
      c.start <- !s;
      c.stop <- !e;
      c.tok <- !s;
      true
    end
  end

let line_number c = c.line
let line c = Bytes.sub_string c.buf c.start (c.stop - c.start)

let next_or c what = if not (next c) then input_error c.source "%s" what

let iter_lines c f =
  while next c do
    f c.line
  done

(* a count of lines still to come: it must fit in the input, so a
   corrupt header is a located error rather than a huge allocation *)
let check_lines c lineno what n =
  if n < 0 || n > c.size then parse_error c.source lineno "%s %d out of range" what n

(* Fields are runs of non-blanks, and blanks are spaces or tabs (files
   in the wild use both). *)
let is_blank ch = ch = ' ' || ch = '\t'

(* the fields of the current data line, copied out; built right to left
   so the list needs no reversal *)
let fields c =
  let buf = c.buf and first = c.start in
  let rec go stop acc =
    let e = ref stop in
    while !e > first && is_blank (Bytes.unsafe_get buf (!e - 1)) do
      decr e
    done;
    if !e = first then acc
    else begin
      let s = ref !e in
      while !s > first && not (is_blank (Bytes.unsafe_get buf (!s - 1))) do
        decr s
      done;
      go !s (Bytes.sub_string buf !s (!e - !s) :: acc)
    end
  in
  go c.stop []

(* Scan the next integer token of the current line into [c.value];
   [false] at the end of the line.  A token of an optional '-' and 1 to
   18 decimal digits (below [max_int], so it cannot overflow) converts
   where it lies.  Any other token goes to [int_of_string_opt] as a copy
   of that token alone, so exactly the tokens [int_of_string_opt]
   accepts are accepted, with the same values. *)
let next_int c =
  let buf = c.buf and stop = c.stop in
  let i = ref c.tok in
  while !i < stop && is_blank (Bytes.unsafe_get buf !i) do
    incr i
  done;
  if !i = stop then begin
    c.tok <- stop;
    false
  end
  else begin
    let first = !i in
    let neg = Bytes.unsafe_get buf first = '-' in
    if neg then incr i;
    let digits = !i and v = ref 0 in
    while
      !i < stop
      && match Bytes.unsafe_get buf !i with '0' .. '9' -> true | _ -> false
    do
      v := (10 * !v) + Char.code (Bytes.unsafe_get buf !i) - 48;
      incr i
    done;
    let n = !i - digits in
    if n >= 1 && n <= 18 && (!i = stop || is_blank (Bytes.unsafe_get buf !i))
    then c.value <- (if neg then - !v else !v)
    else begin
      while !i < stop && not (is_blank (Bytes.unsafe_get buf !i)) do
        incr i
      done;
      let tok = Bytes.sub_string buf first (!i - first) in
      match int_of_string_opt tok with
      | Some x -> c.value <- x
      | None -> parse_error c.source c.line "expected integer, got %S" tok
    end;
    c.tok <- !i;
    true
  end

(* Count the fields of the current line first, so a line with more
   fields than [dst] holds is reported by its count and none of its
   tokens is converted; otherwise convert them with [next_int]. *)
let line_ints c dst =
  let buf = c.buf and stop = c.stop in
  let n = ref 0 and i = ref c.start in
  while !i < stop do
    while !i < stop && is_blank (Bytes.unsafe_get buf !i) do
      incr i
    done;
    if !i < stop then begin
      incr n;
      while !i < stop && not (is_blank (Bytes.unsafe_get buf !i)) do
        incr i
      done
    end
  done;
  if !n <= Array.length dst then begin
    c.tok <- c.start;
    for k = 0 to !n - 1 do
      ignore (next_int c);
      dst.(k) <- c.value
    done
  end;
  !n

(* ---------------- hMetis .hgr ---------------- *)

let hgr_string ?(with_weights = true) h =
  let ne = Hypergraph.num_edges h and nv = Hypergraph.num_vertices h in
  let b = Buffer.create (16 * (ne + nv)) in
  let int x = Buffer.add_string b (string_of_int x) in
  int ne;
  Buffer.add_char b ' ';
  int nv;
  Buffer.add_string b (if with_weights then " 11\n" else "\n");
  for e = 0 to ne - 1 do
    if with_weights then int (Hypergraph.edge_weight h e);
    let first = ref (not with_weights) in
    Hypergraph.iter_pins h e (fun v ->
        if not !first then Buffer.add_char b ' ';
        first := false;
        int (v + 1));
    Buffer.add_char b '\n'
  done;
  if with_weights then
    for v = 0 to nv - 1 do
      int (Hypergraph.vertex_weight h v);
      Buffer.add_char b '\n'
    done;
  Buffer.contents b

let write_hgr ?with_weights path h =
  with_out path (fun oc -> output_string oc (hgr_string ?with_weights h))

(* vertices an .hgr header may name beyond its input size: a vertex
   needs no line of its own, so isolated vertices are legal *)
let isolated_allowance = 1 lsl 20

(* Single pass: only the current line plus the growing CSR is held in
   memory, and nothing is allocated per line or per pin. *)
let hgr_of_cursor c =
  let path = c.source in
  next_or c "empty file";
  let hline = c.line in
  let count = ref 0 and ne = ref 0 and nv = ref 0 and fmt = ref 0 in
  while next_int c do
    (match !count with
     | 0 -> ne := c.value
     | 1 -> nv := c.value
     | 2 -> fmt := c.value
     | _ -> ());
    incr count
  done;
  if !count < 2 || !count > 3 then parse_error path hline "bad header";
  let ne = !ne and nv = !nv and fmt = !fmt in
  (* validate the counts here, with a location, rather than letting a
     negative value escape as a bare Invalid_argument from Array.make *)
  if ne < 0 then parse_error path hline "negative edge count %d" ne;
  if nv < 0 then parse_error path hline "negative vertex count %d" nv;
  if nv > max_i32 then parse_error path hline "vertex count %d exceeds int32" nv;
  (* like [check_lines]: a 17-byte body cannot make the decoder
     allocate gigabytes *)
  if nv - isolated_allowance > c.size then
    parse_error path hline "vertex count %d out of range" nv;
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
  (* one net's pins, joining [pins] in one call per net *)
  let net = ref (Array.make 64 0) in
  for e = 0 to ne - 1 do
    if not (next c) then missing e;
    let w = ref 1 and want_weight = ref has_ew and npins = ref 0 in
    while next_int c do
      let x = c.value in
      if !want_weight then begin
        w := x;
        want_weight := false
      end
      else begin
        if x < 1 || x > nv then parse_error path c.line "pin %d out of range" x;
        let v = x - 1 in
        if mark.(v) <> e then begin
          mark.(v) <- e;
          if !npins = Array.length !net then
            net := Array.append !net (Array.make !npins 0);
          Array.unsafe_set !net !npins v;
          incr npins
        end
      end
    done;
    if !want_weight then parse_error path c.line "empty edge line";
    if !npins = 0 then parse_error path c.line "edge with no pins";
    if !w <= 0 then parse_error path c.line "non-positive weight of edge %d" e;
    if !w > max_i32 then parse_error path c.line "edge weight exceeds int32";
    Buf32.push_ints pins !net !npins;
    Bigarray.Array1.set edge_weight e (Int32.of_int !w);
    Bigarray.Array1.set edge_offset (e + 1) (Int32.of_int (Buf32.length pins))
  done;
  let vertex_weight = Bigarray.Array1.create Bigarray.Int32 Bigarray.c_layout nv in
  Bigarray.Array1.fill vertex_weight 1l;
  if has_vw then
    for v = 0 to nv - 1 do
      if not (next c) then missing (ne + v);
      let count = ref 0 and w = ref 1 in
      while next_int c do
        incr count;
        w := c.value
      done;
      if !count <> 1 then parse_error path c.line "expected one vertex weight";
      if !w <= 0 then parse_error path c.line "non-positive weight of vertex %d" v;
      if !w > max_i32 then parse_error path c.line "vertex weight exceeds int32";
      Bigarray.Array1.set vertex_weight v (Int32.of_int !w)
    done;
  (* every requirement of [of_int32_csr] was checked above, with a
     location *)
  Hypergraph.of_int32_csr_unchecked ~num_vertices:nv ~edge_offset
    ~edge_pins:(Buf32.contents pins) ~vertex_weight ~edge_weight

let read_hgr path = with_file path hgr_of_cursor

(* ---------------- cell names ---------------- *)

(* Cells are named [a<i>] and pads [p<j>]; pad [j] is vertex
   [num_cells + j].  Shared by .netD and Bookshelf. *)
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

(* ---------------- ISPD98 .netD ---------------- *)

let netd_of_cursor c =
  let path = c.source in
  let header () =
    next_or c "truncated .netD header";
    let s = line c in
    match int_of_string_opt s with
    | Some v -> (c.line, v)
    | None -> parse_error path c.line "expected integer header, got %S" s
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
  iter_lines c (fun lineno ->
      incr found;
      match fields c with
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
  Hypergraph.create ~num_vertices:num_modules ~edges ()

(* ---------------- UCLA Bookshelf ---------------- *)

let bookshelf_comment = '#'

(* the next data line, which must read "Key : value" *)
let header_count c key what =
  next_or c ("truncated " ^ what ^ " header");
  match fields c with
  | [ k; ":"; v ] when k = key -> (
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> parse_error c.source c.line "bad %s value %S" key v)
  | _ -> parse_error c.source c.line "expected \"%s : <n>\"" key

let expect_header c what magic =
  next_or c ("missing " ^ what ^ " section");
  if line c <> magic then parse_error c.source c.line "bad %s header" what

(* the .nodes section: vertex count, terminal count, cell widths *)
let nodes_of_cursor c =
  let path = c.source in
  expect_header c ".nodes" "UCLA nodes 1.0";
  let nv = header_count c "NumNodes" ".nodes" in
  check_lines c c.line "NumNodes" nv;
  let num_pads = header_count c "NumTerminals" ".nodes" in
  if num_pads > nv then
    parse_error path c.line "NumTerminals %d exceeds NumNodes" num_pads;
  let num_cells = nv - num_pads in
  let widths = Array.make nv 1 in
  for i = 0 to nv - 1 do
    if not (next c) then input_error path "expected %d node lines, found %d" nv i;
    match fields c with
    | name :: width :: _ -> (
      let v = vertex_of_name path c.line ~num_cells ~num_pads name in
      match int_of_string_opt width with
      | Some w when w > 0 && w <= max_i32 -> widths.(v) <- w
      | _ -> parse_error path c.line "bad width %S" width)
    | _ -> parse_error path c.line "expected \"name width height\""
  done;
  (nv, num_pads, widths)

(* the .nets section, up to its last promised net *)
let nets_of_cursor c ~num_cells ~num_pads =
  let path = c.source in
  expect_header c ".nets" "UCLA nets 1.0";
  let num_nets = header_count c "NumNets" ".nets" in
  check_lines c c.line "NumNets" num_nets;
  let num_pins = header_count c "NumPins" ".nets" in
  let total_pins = ref 0 in
  let nets =
    Array.init num_nets (fun _ ->
        next_or c "fewer nets than promised";
        match fields c with
        | "NetDegree" :: ":" :: d :: _ ->
          let d =
            match int_of_string_opt d with
            | Some d when d >= 1 && d <= c.size -> d
            | _ -> parse_error path c.line "bad net degree %S" d
          in
          total_pins := !total_pins + d;
          Array.init d (fun _ ->
              next_or c "truncated net pin list";
              match fields c with
              | name :: _ -> vertex_of_name path c.line ~num_cells ~num_pads name
              | [] -> parse_error path c.line "empty pin line")
        | _ -> parse_error path c.line "expected \"NetDegree : d\"")
  in
  if !total_pins <> num_pins then
    input_error path "header promised %d pins, found %d" num_pins !total_pins;
  nets

let bookshelf_hypergraph (nv, _num_pads, widths) edges =
  Hypergraph.create ~vertex_weights:widths ~num_vertices:nv ~edges ()

let read_bookshelf ~basename =
  let ((nv, num_pads, _) as nodes) =
    with_file ~comment:bookshelf_comment (basename ^ ".nodes") (fun c ->
        let nodes = nodes_of_cursor c in
        if next c then parse_error c.source c.line "more node lines than NumNodes";
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

(* ---------------- partition files ---------------- *)

let write_partition path side =
  with_out path (fun oc ->
      Array.iter (fun s -> Printf.fprintf oc "%d\n" s) side)

let read_partition path ~num_vertices =
  let side = Array.make num_vertices 0 in
  let found = ref 0 in
  with_file path (fun c ->
      iter_lines c (fun lineno ->
          if !found < num_vertices then begin
            let l = line c in
            side.(!found) <-
              (match int_of_string_opt l with
               | Some s when s >= 0 -> s
               | Some _ -> parse_error path lineno "side must be nonnegative"
               | None -> parse_error path lineno "bad side %S" l)
          end;
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
  | Netd -> (with_file path netd_of_cursor, None)
  | Bookshelf -> (read_bookshelf ~basename:(Filename.remove_extension path), None)

let decode ~source format body =
  match format with
  | Hgr -> (hgr_of_cursor (string_cursor ~source body), None)
  | Hgrb ->
    let h, fingerprint = Instance_store.of_string ~source body in
    (h, Some fingerprint)
  | Netd -> (netd_of_cursor (string_cursor ~source body), None)
  | Bookshelf ->
    (bookshelf_of_cursor (string_cursor ~comment:bookshelf_comment ~source body), None)

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
