(* The one JSON scanner (the container ships no yojson).  [parse] reads
   the full grammar into [t], numbers as floats; [flat_object] reads one
   object of scalars, keeping the int/float distinction the record logs
   need.  Both share every lexical rule below, so the two readers can
   never disagree about what a string, an escape or a number is. *)

type scalar = String of string | Int of int | Float of float | Bool of bool

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* -- the shared scanner -- *)

exception Malformed of int * string

type scanner = { s : string; mutable pos : int }

let fail sc msg = raise (Malformed (sc.pos, msg))
let peek sc = if sc.pos < String.length sc.s then Some sc.s.[sc.pos] else None

let next sc =
  match peek sc with
  | Some c ->
    sc.pos <- sc.pos + 1;
    c
  | None -> fail sc "unexpected end of input"

let rec skip_ws sc =
  match peek sc with
  | Some (' ' | '\t' | '\n' | '\r') ->
    sc.pos <- sc.pos + 1;
    skip_ws sc
  | _ -> ()

let expect sc c = if next sc <> c then fail sc (Printf.sprintf "expected %C" c)

let literal sc word v =
  let l = String.length word in
  if sc.pos + l <= String.length sc.s && String.sub sc.s sc.pos l = word then begin
    sc.pos <- sc.pos + l;
    v
  end
  else fail sc ("expected " ^ word)

let hex sc =
  match next sc with
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> fail sc "bad \\u escape"

(* [\u] takes exactly four hex digits.  A code point up to 0xff decodes
   to that byte, the inverse of [Json_out.escape]; a wider one decodes
   to ['?'] rather than to UTF-8. *)
let string sc =
  expect sc '"';
  let b = Buffer.create 16 in
  let rec go () =
    match next sc with
    | '"' -> Buffer.contents b
    | '\\' ->
      (match next sc with
      | ('"' | '\\' | '/') as c -> Buffer.add_char b c
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'n' -> Buffer.add_char b '\n'
      | 'r' -> Buffer.add_char b '\r'
      | 't' -> Buffer.add_char b '\t'
      | 'u' ->
        let a = hex sc in
        let b1 = hex sc in
        let c = hex sc in
        let d = hex sc in
        let code = (a lsl 12) lor (b1 lsl 8) lor (c lsl 4) lor d in
        Buffer.add_char b (if code <= 0xff then Char.chr code else '?')
      | _ -> fail sc "bad escape");
      go ()
    | c ->
      Buffer.add_char b c;
      go ()
  in
  go ()

(* a number starts with '-' or a digit and runs over digits, signs,
   '.', 'e' and 'E'; the caller converts the lexeme *)
let number_lexeme sc =
  let start = sc.pos in
  while
    match peek sc with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
    | _ -> false
  do
    sc.pos <- sc.pos + 1
  done;
  String.sub sc.s start (sc.pos - start)

let convert sc f lexeme =
  match f lexeme with Some v -> v | None -> fail sc "bad number"

(* [open_ item (',' item)* close], or an empty [open_ close] *)
let sequence sc open_ close item =
  expect sc open_;
  skip_ws sc;
  if peek sc = Some close then begin
    sc.pos <- sc.pos + 1;
    []
  end
  else begin
    let rec go acc =
      skip_ws sc;
      let acc = item sc :: acc in
      skip_ws sc;
      match next sc with
      | ',' -> go acc
      | c when c = close -> List.rev acc
      | _ -> fail sc (Printf.sprintf "expected ',' or %C" close)
    in
    go []
  end

(* an object's members, [value] reading each member's value *)
let members sc value =
  sequence sc '{' '}' (fun sc ->
      let k = string sc in
      skip_ws sc;
      expect sc ':';
      skip_ws sc;
      (k, value sc))

(* run [read] over the whole of [s]: only whitespace may follow *)
let whole read s =
  let sc = { s; pos = 0 } in
  skip_ws sc;
  let v = read sc in
  skip_ws sc;
  if sc.pos <> String.length s then fail sc "trailing garbage";
  v

(* -- the full grammar -- *)

let rec value sc =
  match peek sc with
  | Some '"' -> Str (string sc)
  | Some '{' -> Obj (members sc value)
  | Some '[' -> Arr (sequence sc '[' ']' value)
  | Some 't' -> literal sc "true" (Bool true)
  | Some 'f' -> literal sc "false" (Bool false)
  | Some 'n' -> literal sc "null" Null
  | Some ('-' | '0' .. '9') -> Num (convert sc float_of_string_opt (number_lexeme sc))
  | Some _ -> fail sc "expected a value"
  | None -> fail sc "unexpected end of input"

let parse s =
  try whole value s
  with Malformed (pos, msg) -> failwith (Printf.sprintf "json: %s at offset %d" msg pos)

let parse_result s =
  match parse s with v -> Ok v | exception Failure msg -> Error msg

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

(* -- flat records -- *)

(* an integer lexeme goes straight through [int_of_string], never
   through a float: 62-bit seeds must survive the round trip *)
let scalar sc : scalar =
  match peek sc with
  | Some '"' -> String (string sc)
  | Some 't' -> literal sc "true" (Bool true : scalar)
  | Some 'f' -> literal sc "false" (Bool false : scalar)
  | Some ('-' | '0' .. '9') ->
    let lexeme = number_lexeme sc in
    if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lexeme then
      Float (convert sc float_of_string_opt lexeme)
    else Int (convert sc int_of_string_opt lexeme)
  | _ -> fail sc "expected a scalar"

let flat_object s = try Some (whole (fun sc -> members sc scalar) s) with Malformed _ -> None
