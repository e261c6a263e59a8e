type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

type error = Bad_request of string | Body_too_large of int

let max_header_bytes = 64 * 1024

(* percent-decoding for path and query components; '+' is a space in
   query strings per the form encoding convention *)
let percent_decode ?(plus_is_space = false) s =
  let b = Buffer.create (String.length s) in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
      match (hex s.[!i + 1], hex s.[!i + 2]) with
      | Some h, Some l ->
        Buffer.add_char b (Char.chr ((h * 16) + l));
        i := !i + 2
      | _ -> Buffer.add_char b '%')
    | '+' when plus_is_space -> Buffer.add_char b ' '
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_query qs =
  if qs = "" then []
  else
    String.split_on_char '&' qs
    |> List.filter_map (fun pair ->
           if pair = "" then None
           else
             match String.index_opt pair '=' with
             | None -> Some (percent_decode ~plus_is_space:true pair, "")
             | Some i ->
               Some
                 ( percent_decode ~plus_is_space:true (String.sub pair 0 i),
                   percent_decode ~plus_is_space:true
                     (String.sub pair (i + 1) (String.length pair - i - 1)) ))

let parse_target target =
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some i ->
    ( percent_decode (String.sub target 0 i),
      parse_query (String.sub target (i + 1) (String.length target - i - 1)) )

(* A token per RFC 9110 is roughly "no spaces, no controls"; we only
   need enough strictness to reject garbage (TLS handshakes, random
   binary) with a clean 400. *)
let plausible_token s =
  s <> ""
  && String.for_all (fun c -> c > ' ' && c < '\x7f') s

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ]
    when plausible_token meth && plausible_token target
         && (version = "HTTP/1.1" || version = "HTTP/1.0") ->
    let path, query = parse_target target in
    Ok (String.uppercase_ascii meth, path, query)
  | _ -> Error (Printf.sprintf "malformed request line %S" line)

let parse_header_line line =
  match String.index_opt line ':' with
  | None | Some 0 -> Error (Printf.sprintf "malformed header line %S" line)
  | Some i ->
    Ok
      ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

type phase =
  | Head  (** accumulating until the blank line *)
  | Body of { req : request; content_length : int }
  | Finished

type parser_state = {
  buf : Buffer.t;
  max_body : int;
  mutable phase : phase;
}

let create_parser ?(max_body = 64 * 1024 * 1024) () =
  { buf = Buffer.create 512; max_body; phase = Head }

(* find "\r\n\r\n" (or a bare "\n\n" from sloppy clients) in the
   buffer; returns (head_end, body_start) *)
let find_head_end s =
  let n = String.length s in
  let rec scan i =
    if i >= n then None
    else if s.[i] = '\n' then
      if i + 1 < n && s.[i + 1] = '\n' then Some (i, i + 2)
      else if i + 2 < n && s.[i + 1] = '\r' && s.[i + 2] = '\n' then
        Some (i, i + 3)
      else scan (i + 1)
    else scan (i + 1)
  in
  scan 0

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let parse_head head max_body =
  match String.split_on_char '\n' head |> List.map strip_cr with
  | [] -> Error (Bad_request "empty request head")
  | request_line :: header_lines -> (
    match parse_request_line request_line with
    | Error msg -> Error (Bad_request msg)
    | Ok (meth, path, query) -> (
      let rec headers acc = function
        | [] -> Ok (List.rev acc)
        | "" :: rest -> headers acc rest
        | line :: rest -> (
          match parse_header_line line with
          | Ok kv -> headers (kv :: acc) rest
          | Error msg -> Error (Bad_request msg))
      in
      match headers [] header_lines with
      | Error e -> Error e
      | Ok headers -> (
        if List.mem_assoc "transfer-encoding" headers then
          Error (Bad_request "Transfer-Encoding is not supported")
        else
          let req = { meth; path; query; headers; body = "" } in
          match List.assoc_opt "content-length" headers with
          | None -> Ok (req, 0)
          | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some n when n >= 0 && n <= max_body -> Ok (req, n)
            | Some n when n > max_body -> Error (Body_too_large max_body)
            | _ -> Error (Bad_request (Printf.sprintf "bad Content-Length %S" v))
          ))))

let header req name =
  List.assoc_opt (String.lowercase_ascii name) req.headers

let expects_continue t =
  match t.phase with
  | Body { req; content_length } -> (
    Buffer.length t.buf < content_length
    &&
    match header req "expect" with
    | Some v -> String.lowercase_ascii (String.trim v) = "100-continue"
    | None -> false)
  | Head | Finished -> false

let feed t chunk =
  match t.phase with
  | Finished -> `Error (Bad_request "parser already finished")
  | _ -> (
    Buffer.add_string t.buf chunk;
    let try_finish_body () =
      match t.phase with
      | Body { req; content_length } when Buffer.length t.buf >= content_length
        ->
        let body = Buffer.sub t.buf 0 content_length in
        t.phase <- Finished;
        `Request { req with body }
      | _ -> `More
    in
    match t.phase with
    | Finished -> assert false
    | Body _ -> try_finish_body ()
    | Head -> (
      let s = Buffer.contents t.buf in
      match find_head_end s with
      | None ->
        if Buffer.length t.buf > max_header_bytes then begin
          t.phase <- Finished;
          `Error (Bad_request "request head too large")
        end
        else `More
      | Some (head_end, body_start) -> (
        match parse_head (String.sub s 0 head_end) t.max_body with
        | Error e ->
          t.phase <- Finished;
          `Error e
        | Ok (req, content_length) ->
          Buffer.clear t.buf;
          Buffer.add_substring t.buf s body_start
            (String.length s - body_start);
          t.phase <- Body { req; content_length };
          try_finish_body ())))

let query_param req name = List.assoc_opt name req.query

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let status_text = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let render_response ?(headers = []) ~status ~body () =
  let b = Buffer.create (256 + String.length body) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_text status));
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\nConnection: close\r\n\r\n"
       (String.length body));
  Buffer.add_string b body;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Client-side response parsing                                        *)

type response = {
  status : int;
  resp_headers : (string * string) list;
  resp_body : string;
}

let resp_header r name =
  List.assoc_opt (String.lowercase_ascii name) r.resp_headers

let parse_response raw =
  match find_head_end raw with
  | None -> Error "truncated response (no header terminator)"
  | Some (head_end, body_start) -> (
    let head = String.sub raw 0 head_end in
    match String.split_on_char '\n' head |> List.map strip_cr with
    | [] -> Error "empty response"
    | status_line :: header_lines -> (
      let status =
        match String.split_on_char ' ' status_line with
        | version :: code :: _
          when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
          int_of_string_opt code
        | _ -> None
      in
      match status with
      | None -> Error (Printf.sprintf "malformed status line %S" status_line)
      | Some status ->
        let resp_headers =
          List.filter_map
            (fun l ->
              if l = "" then None
              else
                match parse_header_line l with
                | Ok (k, v) -> Some (k, v)
                | Error _ -> None)
            header_lines
        in
        let body_all =
          String.sub raw body_start (String.length raw - body_start)
        in
        let resp_body =
          match List.assoc_opt "content-length" resp_headers with
          | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some n when n >= 0 && n <= String.length body_all ->
              String.sub body_all 0 n
            | _ -> body_all)
          | None -> body_all
        in
        Ok { status; resp_headers; resp_body }))
