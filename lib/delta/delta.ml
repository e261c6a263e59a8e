module Fingerprint = Hypart_lab.Fingerprint
module Io = Hypart_hypergraph.Netlist_io

type op =
  | Add_cell of int
  | Remove_cell of int
  | Reweight_cell of int * int
  | Add_net of int * int array
  | Remove_net of int

type t = {
  source : string;
  base : (string * int) option;
  ops : (int * op) array;
  prior : int array option;
}

exception Parse_error of string

let parse_error path line fmt =
  Printf.ksprintf
    (fun msg -> raise (Parse_error (Printf.sprintf "%s:%d: %s" path line msg)))
    fmt

let magic = "HGRD"
let version = 1

let int_field path line s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> parse_error path line "expected integer, got %S" s

let is_hex_fp s =
  String.length s = 16
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

(* The [n] side lines of a prior section, each read in place: nothing
   is allocated per line. *)
let prior_sides cur ~path ~pline n =
  let sides = Array.make n 0 and one = [| 0 |] in
  for i = 0 to n - 1 do
    if not (Io.next cur) then
      parse_error path pline
        "truncated prior section: expected %d side lines, found %d" n i;
    let line = Io.line_number cur in
    if Io.line_ints cur one <> 1 then
      parse_error path line "expected one side per prior line";
    let s = one.(0) in
    if s <> 0 && s <> 1 then
      parse_error path line "prior side must be 0 or 1, got %d" s;
    sides.(i) <- s
  done;
  if Io.next cur then
    parse_error path (Io.line_number cur) "trailing line %S after prior section"
      (Io.line cur);
  sides

(* data lines come from Netlist_io's line cursor, which skips blank and
   '%' lines but counts them, so diagnostics name the physical line *)
let decode ~source body len =
  let path = source in
  let cur = Io.bytes_cursor ~source body len in
  (* the next data line's number and fields *)
  let next () =
    if Io.next cur then Some (Io.line_number cur, Io.fields cur) else None
  in
  match next () with
  | None -> raise (Parse_error (path ^ ": empty delta"))
  | Some (hline, header) ->
    (match header with
    | [ m; v ] when m = magic ->
      let v = int_field path hline v in
      if v <> version then
        parse_error path hline "unsupported %s version %d (have %d)" magic v
          version
    | _ -> parse_error path hline "expected \"%s %d\" header" magic version);
    let base = ref None in
    let ops = ref [] in
    let removed_nets = Hashtbl.create 16 in
    let removed_cells = Hashtbl.create 16 in
    let cell_id path line s =
      let c = int_field path line s in
      if c < 1 then parse_error path line "cell id %d out of range" c;
      c - 1
    in
    let rec go () =
      match next () with
      | None -> None
      | Some (line, fields) -> (
        match fields with
        | "base" :: [ fp ] ->
          if not (is_hex_fp fp) then
            parse_error path line "malformed base fingerprint %S" fp;
          if !base <> None then parse_error path line "duplicate base line";
          base := Some (fp, line);
          go ()
        | "addcell" :: [ w ] ->
          let w = int_field path line w in
          if w < 1 then parse_error path line "non-positive cell weight %d" w;
          ops := (line, Add_cell w) :: !ops;
          go ()
        | "rmcell" :: [ c ] ->
          let c = cell_id path line c in
          if Hashtbl.mem removed_cells c then
            parse_error path line "duplicate removal of cell %d" (c + 1);
          Hashtbl.add removed_cells c ();
          ops := (line, Remove_cell c) :: !ops;
          go ()
        | "reweight" :: [ c; w ] ->
          let c = cell_id path line c in
          let w = int_field path line w in
          if w < 1 then parse_error path line "non-positive cell weight %d" w;
          ops := (line, Reweight_cell (c, w)) :: !ops;
          go ()
        | "rmnet" :: [ e ] ->
          let e = int_field path line e in
          if e < 1 then parse_error path line "net id %d out of range" e;
          if Hashtbl.mem removed_nets (e - 1) then
            parse_error path line "duplicate removal of net %d" e;
          Hashtbl.add removed_nets (e - 1) ();
          ops := (line, Remove_net (e - 1)) :: !ops;
          go ()
        | "addnet" :: w :: pins ->
          let w = int_field path line w in
          if w < 1 then parse_error path line "non-positive net weight %d" w;
          let pins = List.map (cell_id path line) pins in
          let distinct = List.sort_uniq compare pins in
          if List.length distinct <> List.length pins then
            parse_error path line "duplicate pin in added net";
          if List.length pins < 2 then
            parse_error path line "added net needs at least 2 pins";
          ops := (line, Add_net (w, Array.of_list pins)) :: !ops;
          go ()
        | [ "prior"; n ] ->
          let n = int_field path line n in
          if n < 0 then parse_error path line "negative prior length %d" n;
          (* each side takes a line: a longer prior cannot fit the body *)
          if n > len then
            parse_error path line "prior length %d out of range" n;
          Some (line, n)
        | tok :: _ -> parse_error path line "unknown delta op %S" tok
        | [] -> assert false)
    in
    let prior =
      match go () with
      | None -> None
      | Some (pline, n) -> Some (prior_sides cur ~path ~pline n)
    in
    { source; base = !base; ops = Array.of_list (List.rev !ops); prior }

(* the cursor's own located errors (a prior side that is not an
   integer) carry the same text and leave as this module's *)
let of_bytes ?(source = "<delta>") body len =
  try decode ~source body len with Io.Parse_error msg -> raise (Parse_error msg)

let of_string ?source body =
  of_bytes ?source (Bytes.unsafe_of_string body) (String.length body)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | body -> of_string ~source:path body
  | exception Sys_error msg -> raise (Parse_error msg)

let op_to_line = function
  | Add_cell w -> Printf.sprintf "addcell %d" w
  | Remove_cell c -> Printf.sprintf "rmcell %d" (c + 1)
  | Reweight_cell (c, w) -> Printf.sprintf "reweight %d %d" (c + 1) w
  | Add_net (w, pins) ->
    let b = Buffer.create 32 in
    Buffer.add_string b (Printf.sprintf "addnet %d" w);
    Array.iter (fun p -> Buffer.add_string b (Printf.sprintf " %d" (p + 1))) pins;
    Buffer.contents b
  | Remove_net e -> Printf.sprintf "rmnet %d" (e + 1)

let to_string ?(with_prior = true) t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s %d\n" magic version);
  (match t.base with
  | Some (fp, _) -> Buffer.add_string b (Printf.sprintf "base %s\n" fp)
  | None -> ());
  Array.iter
    (fun (_, op) ->
      Buffer.add_string b (op_to_line op);
      Buffer.add_char b '\n')
    t.ops;
  (match t.prior with
  | Some sides when with_prior ->
    Buffer.add_string b (Printf.sprintf "prior %d\n" (Array.length sides));
    Array.iter
      (fun s ->
        Buffer.add_string b (string_of_int s);
        Buffer.add_char b '\n')
      sides
  | _ -> ());
  Buffer.contents b

let write path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))

let with_prior t prior =
  (match prior with
  | Some sides ->
    Array.iter
      (fun s ->
        if s <> 0 && s <> 1 then
          invalid_arg
            (Printf.sprintf "Delta.with_prior: side must be 0 or 1, got %d" s))
      sides
  | None -> ());
  { t with prior = Option.map Array.copy prior }

let with_base t fp = { t with base = Some (fp, 0) }
let num_ops t = Array.length t.ops

let chain_fingerprint ~base t =
  let b = Buffer.create 256 in
  Buffer.add_string b base;
  Buffer.add_char b '\n';
  Array.iter
    (fun (_, op) ->
      Buffer.add_string b (op_to_line op);
      Buffer.add_char b '\n')
    t.ops;
  Fingerprint.of_string (Buffer.contents b)
