type row = Cells of string list | Separator | Span of string

type t = { headers : string list; mutable rows : row list (* reversed *) }

let make ~headers = { headers; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: width mismatch";
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows
let add_span t label = t.rows <- Span label :: t.rows

let widths t =
  let w = Array.of_list (List.map String.length t.headers) in
  List.iter
    (function
      | Cells cells ->
        List.iteri (fun i c -> w.(i) <- max w.(i) (String.length c)) cells
      | Separator | Span _ -> ())
    t.rows;
  w

let render t =
  let w = widths t in
  let ncols = Array.length w in
  let total_width = Array.fold_left ( + ) 0 w + (3 * (ncols - 1)) in
  let buf = Buffer.create 1024 in
  let pad i s =
    let extra = w.(i) - String.length s in
    (* first column left-aligned, the rest right-aligned *)
    if i = 0 then s ^ String.make extra ' ' else String.make extra ' ' ^ s
  in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad i c))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_cells t.headers;
  Buffer.add_string buf (String.make total_width '-');
  Buffer.add_char buf '\n';
  List.iter
    (function
      | Cells cells -> emit_cells cells
      | Separator ->
        Buffer.add_string buf (String.make total_width '-');
        Buffer.add_char buf '\n'
      | Span label ->
        let pad_total = max 0 (total_width - String.length label) in
        let left = pad_total / 2 in
        Buffer.add_string buf (String.make left ' ');
        Buffer.add_string buf label;
        Buffer.add_char buf '\n')
    (List.rev t.rows);
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 1024 in
  let emit cells =
    Buffer.add_string buf (String.concat "," (List.map csv_escape cells));
    Buffer.add_char buf '\n'
  in
  emit t.headers;
  List.iter
    (function
      | Cells cells -> emit cells
      | Span label -> emit [ label ]
      | Separator -> ())
    (List.rev t.rows);
  Buffer.contents buf

let to_markdown t =
  let row cells = "| " ^ String.concat " | " cells ^ " |\n" in
  let blank = List.map (fun _ -> "") (List.tl t.headers) in
  String.concat ""
    (row t.headers
    :: row (List.map (fun _ -> "---") t.headers)
    :: List.filter_map
         (function
           | Cells cells -> Some (row cells)
           | Span label -> Some (row (label :: blank))
           | Separator -> None)
         (List.rev t.rows))

let print t = print_string (render t)
