type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : Bytes.t;
  body_length : int;
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

(* The body goes into the domain's body buffer when no other parser on
   the domain holds it, else into a buffer of its own.  A buffer that
   is too small grows through the shares [content_length / 2^k]
   (rounded up): the smallest share not below the bytes received, and
   never below the largest share not above [first_body].  It grows
   only when received bytes fill it, so a request adds at most
   [max first_body (2 * received)] bytes whatever length its head
   declares, and the domain keeps the largest body it has read: a
   resend of the same upload allocates no body at all. *)
let first_body = 65536

let share content_length k = (content_length + (1 lsl k) - 1) asr k

type pool = {
  mutable kept : Bytes.t;  (** the domain's body buffer, its largest so far *)
  mutable lent : bool;  (** a parser holds [kept] until {!release} *)
}

let pool_key = Domain.DLS.new_key (fun () -> { kept = Bytes.empty; lent = false })

type body = {
  req : request;
  content_length : int;
  mutable buf : Bytes.t;
  mutable received : int;  (** bytes of [buf] that hold body *)
}

type phase =
  | Head  (** accumulating until the blank line *)
  | Body of body
  | Finished

type parser_state = {
  head : Buffer.t;  (** the head bytes so far, never body bytes *)
  max_body : int;
  mutable phase : phase;
  mutable borrowed : pool option;  (** the pool whose buffer the body is in *)
}

let create_parser ?(max_body = 64 * 1024 * 1024) () =
  { head = Buffer.create 512; max_body; phase = Head; borrowed = None }

let release t =
  match t.borrowed with
  | None -> ()
  | Some pool ->
    pool.lent <- false;
    t.borrowed <- None

(* The byte [k] places before [b.[i]] in the request, looking back into
   the head buffer (the bytes fed before [off]) when [i - k] falls
   before [off]; ['\000'] before the first byte. *)
let before head b off i k =
  if i - k >= off then Bytes.unsafe_get b (i - k)
  else
    let j = Buffer.length head - (off - (i - k)) in
    if j >= 0 then Buffer.nth head j else '\000'

(* where the head's blank line — "\r\n\r\n", or a bare "\n\n" from
   sloppy clients — ends in [b.[off .. off+len)]: the first body byte *)
let head_end head b off len =
  let rec scan i =
    if i >= off + len then None
    else if
      Bytes.unsafe_get b i = '\n'
      && (before head b off i 1 = '\n'
         || (before head b off i 1 = '\r' && before head b off i 2 = '\n'))
    then Some (i + 1)
    else scan (i + 1)
  in
  scan off

(* the length of the blank line ending at [stop], given the byte two
   places before [stop]: "\n\n" or "\n\r\n" *)
let blank_length c = if c = '\n' then 2 else 3

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
          let req =
            { meth; path; query; headers; body = Bytes.empty; body_length = 0 }
          in
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
  | Body { req; content_length; received; _ } -> (
    received < content_length
    &&
    match header req "expect" with
    | Some v -> String.lowercase_ascii (String.trim v) = "100-continue"
    | None -> false)
  | Head | Finished -> false

(* the smallest share of [content_length] not below [need], and not
   below the largest share not above [first_body] *)
let grown_size content_length need =
  let rec first k =
    if share content_length k <= first_body then k else first (k + 1)
  in
  let rec fit k = if share content_length k >= need then k else fit (k - 1) in
  share content_length (fit (first 0))

(* append [b.[off .. off+len)] to the body; bytes past Content-Length
   are dropped *)
let add_body t s b off len =
  let n = min len (s.content_length - s.received) in
  let need = s.received + n in
  if need > Bytes.length s.buf then begin
    let grown = Bytes.create (grown_size s.content_length need) in
    Bytes.blit s.buf 0 grown 0 s.received;
    s.buf <- grown;
    (* the domain keeps the grown buffer, not the one it outgrew *)
    Option.iter (fun pool -> pool.kept <- grown) t.borrowed
  end;
  Bytes.blit b off s.buf s.received n;
  s.received <- need;
  if need < s.content_length then `More
  else begin
    t.phase <- Finished;
    `Request { s.req with body = s.buf; body_length = need }
  end

let feed_bytes t b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Http.feed_bytes";
  match t.phase with
  | Finished -> `Error (Bad_request "parser already finished")
  | Body s -> add_body t s b off len
  | Head -> (
    match head_end t.head b off len with
    | None ->
      Buffer.add_subbytes t.head b off len;
      if Buffer.length t.head > max_header_bytes then begin
        t.phase <- Finished;
        `Error (Bad_request "request head too large")
      end
      else `More
    | Some stop -> (
      Buffer.add_subbytes t.head b off (stop - off);
      let n = Buffer.length t.head in
      let blank = blank_length (Buffer.nth t.head (n - 2)) in
      let head = Buffer.sub t.head 0 (n - blank) in
      Buffer.reset t.head;
      match parse_head head t.max_body with
      | Error e ->
        t.phase <- Finished;
        `Error e
      | Ok (req, content_length) ->
        let pool = Domain.DLS.get pool_key in
        let buf =
          if content_length = 0 || pool.lent then Bytes.empty
          else begin
            pool.lent <- true;
            t.borrowed <- Some pool;
            pool.kept
          end
        in
        let s = { req; content_length; buf; received = 0 } in
        t.phase <- Body s;
        add_body t s b stop (off + len - stop)))

let feed t chunk =
  feed_bytes t (Bytes.unsafe_of_string chunk) 0 (String.length chunk)

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

(* the whole response is one allocation: the head is rendered first
   (it is small), then head and body are written into one [Bytes] of
   their exact total length, which becomes the response uncopied *)
let render_response_with ?(headers = []) ~status ~length write =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_text status));
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\nConnection: close\r\n\r\n" length);
  let head = Buffer.length b in
  let out = Bytes.create (head + length) in
  Buffer.blit b 0 out 0 head;
  write out head;
  Bytes.unsafe_to_string out

let render_response ?headers ~status ~body () =
  let n = String.length body in
  render_response_with ?headers ~status ~length:n (fun out off ->
      Bytes.blit_string body 0 out off n)

(* ------------------------------------------------------------------ *)
(* Client-side response parsing                                        *)

type response = {
  status : int;
  resp_headers : (string * string) list;
  resp_body : string;
}

let resp_header r name =
  List.assoc_opt (String.lowercase_ascii name) r.resp_headers

let parse_response_bytes raw n =
  if n < 0 || n > Bytes.length raw then invalid_arg "Http.parse_response_bytes";
  match head_end (Buffer.create 0) raw 0 n with
  | None -> Error "truncated response (no header terminator)"
  | Some body_start -> (
    let blank = blank_length (Bytes.get raw (body_start - 2)) in
    let head = Bytes.sub_string raw 0 (body_start - blank) in
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
        let available = n - body_start in
        let length =
          match List.assoc_opt "content-length" resp_headers with
          | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some n when n >= 0 && n <= available -> n
            | _ -> available)
          | None -> available
        in
        let resp_body = Bytes.sub_string raw body_start length in
        Ok { status; resp_headers; resp_body }))

let parse_response raw =
  parse_response_bytes (Bytes.unsafe_of_string raw) (String.length raw)
