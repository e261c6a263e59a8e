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
  body : Bytes.t;
      (** the body is [body.[0 .. body_length)]; the bytes past it are
          not the request's.  The buffer may be the domain's reused one:
          see {!feed_bytes} for how long it holds the body *)
  body_length : int;
}

type error =
  | Bad_request of string  (** malformed request line, header or length *)
  | Body_too_large of int  (** declared body exceeds this limit *)

type parser_state

val create_parser : ?max_body:int -> unit -> parser_state
(** A parser for one request.  [max_body] defaults to 64 MiB. *)

val feed_bytes :
  parser_state ->
  Bytes.t ->
  int ->
  int ->
  [ `More | `Request of request | `Error of error ]
(** [feed_bytes p b off len] appends [b.[off .. off+len)].  [`More]
    means the request is still incomplete; the other results are
    terminal (further feeding is an error).  An empty chunk is allowed
    and never terminal.  The bytes are copied out, so the caller may
    reuse [b] for its next read.  Body bytes past [Content-Length] are
    dropped.

    Ownership and lifetime of the body: each domain keeps one body
    buffer.  When a head declaring a non-empty body is parsed, the
    parser borrows the domain's buffer if no other parser on that
    domain holds it, and otherwise reads into a buffer of its own.  A
    borrowed buffer stays the parser's — and the returned request's
    [body] stays intact — until {!release}; after that the next parser
    on the domain overwrites it, so a caller that keeps body bytes past
    {!release} must copy them first.  A parser that is never released
    keeps the domain's buffer, and later parsers on the domain read
    into buffers of their own: two live requests never share bytes.

    A buffer too small for the bytes received grows through the shares
    [content_length / 2^k] (rounded up), starting at the largest share
    not above 64 KiB, so a request adds at most
    [max 64 KiB (2 * received)] bytes of new memory whatever length the
    head declared.  The domain keeps the grown buffer: it holds the
    largest body the domain has read, which [max_body] bounds.

    @raise Invalid_argument when [off] and [len] do not name a range of
    [b]. *)

val release : parser_state -> unit
(** Give the domain's body buffer back, if [p] borrowed it: the body of
    the request [p] returned may then be overwritten.  Call it on the
    domain that created [p], once the request is answered — also when
    the request never completed.  Releasing twice, or a parser that
    borrowed nothing, does nothing. *)

val feed :
  parser_state -> string -> [ `More | `Request of request | `Error of error ]
(** {!feed_bytes} over a whole string. *)

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
(** A full response: status line, the given extra headers,
    [Content-Length], [Connection: close], blank line, body. *)

val render_response_with :
  ?headers:(string * string) list ->
  status:int ->
  length:int ->
  (Bytes.t -> int -> unit) ->
  string
(** {!render_response} for a body of [length] bytes that [write]
    renders in place: [write b off] must fill exactly
    [b.[off .. off+length)].  Head and body are one allocation of
    their exact total size, which becomes the response without a
    further copy. *)

(** {1 Client-side response parsing} *)

type response = {
  status : int;
  resp_headers : (string * string) list;  (** names lowercased *)
  resp_body : string;
}

val resp_header : response -> string -> string option

(* kept: the whole-string form the codec tests parse *)
val parse_response : string -> (response, string) result
(** Parse a complete response (the client reads to EOF first —
    [Connection: close] delimits the body even without a
    [Content-Length]). *)

val parse_response_bytes : Bytes.t -> int -> (response, string) result
(** [parse_response_bytes b n] is {!parse_response} of [b.[0 .. n)],
    read in place: the client hands over its read buffer without
    first copying it into a string.
    @raise Invalid_argument when [n] is not within [b]. *)
