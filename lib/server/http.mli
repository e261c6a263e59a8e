(** Minimal HTTP/1.1 codec over raw bytes — no dependencies beyond the
    stdlib.

    The request parser is incremental: {!feed} accepts whatever byte
    chunk [Unix.read] produced, so a request line split across reads,
    a body arriving in many segments, or a client trickling one byte
    at a time all parse identically (property-tested).  Responses are
    rendered as strings; the daemon always answers
    [Connection: close], one request per connection, which keeps the
    state machine trivial and the failure modes visible.

    Limits are explicit: bodies larger than [max_body] are rejected as
    {!Body_too_large} (mapped to 413 by the server) the moment the
    [Content-Length] header is parsed — the oversized body is never
    buffered — and header sections larger than 64 KiB are a
    {!Bad_request}. *)

type request = {
  meth : string;  (** verb, uppercase, e.g. ["POST"] *)
  path : string;  (** decoded path component, e.g. ["/partition"] *)
  query : (string * string) list;  (** decoded query pairs, in order *)
  headers : (string * string) list;  (** names lowercased, in order *)
  body : string;
}

type error =
  | Bad_request of string  (** malformed request line, header or length *)
  | Body_too_large of int  (** declared body exceeds this limit *)

type parser_state

val create_parser : ?max_body:int -> unit -> parser_state
(** A parser for one request.  [max_body] defaults to 64 MiB. *)

val feed :
  parser_state -> string -> [ `More | `Request of request | `Error of error ]
(** Append a chunk of bytes.  [`More] means the request is still
    incomplete; the other results are terminal (further feeding is an
    error).  An empty chunk is allowed and never terminal. *)

val expects_continue : parser_state -> bool
(** Whether the client is waiting for an interim
    [HTTP/1.1 100 Continue] before it sends the body: the head has been
    parsed, it carried [Expect: 100-continue], and the body is still
    incomplete.  The caller sends the interim line once (curl waits
    about a second for it before uploading bodies over 1 MB). *)

val header : request -> string -> string option
(** Case-insensitive header lookup (first occurrence). *)

val query_param : request -> string -> string option

(** {1 Responses} *)

val status_text : int -> string
(** ["OK"], ["Service Unavailable"], ... — ["Unknown"] for unmapped
    codes. *)

val render_response :
  ?headers:(string * string) list -> status:int -> body:string -> unit -> string
(** A full response: status line, [Content-Length], the given extra
    headers, [Connection: close], blank line, body. *)

(** {1 Client-side response parsing} *)

type response = {
  status : int;
  resp_headers : (string * string) list;  (** names lowercased *)
  resp_body : string;
}

val resp_header : response -> string -> string option

val parse_response : string -> (response, string) result
(** Parse a complete response (the client reads to EOF first —
    [Connection: close] delimits the body even without a
    [Content-Length]). *)
