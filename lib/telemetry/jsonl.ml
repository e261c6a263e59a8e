(* Flat JSON-lines records and the one append-only log that stores them
   ([Run_store], [Pop_log] and [Event_log] keep only their codecs and
   policies on top). *)

type value = Json_in.scalar =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool

let value_to_string = function
  | String s -> Json_out.string s
  | Int i -> Json_out.int i
  | Float f -> Json_out.number f
  | Bool b -> if b then "true" else "false"

let to_line fields =
  Json_out.obj (List.map (fun (k, v) -> (k, value_to_string v)) fields)

let of_line = Json_in.flat_object
let member key fields = List.assoc_opt key fields

let string_member key fields =
  match member key fields with Some (String s) -> Some s | _ -> None

let int_member key fields =
  match member key fields with Some (Int i) -> Some i | _ -> None

let bool_member key fields =
  match member key fields with Some (Bool b) -> Some b | _ -> None

let float_member key fields =
  match member key fields with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

(* -- the append-only log -- *)

type t = { oc : out_channel; lock : Mutex.t }

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (* another domain/process may have won the race *)
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* a crash can leave the file ending mid-record; the next append must
   not glue its record onto that partial line (which would corrupt the
   new record too), so an unterminated tail gets its newline first *)
let ends_with_newline path =
  (not (Sys.file_exists path))
  || In_channel.with_open_bin path (fun ic ->
         let len = In_channel.length ic in
         len = 0L
         ||
         (In_channel.seek ic (Int64.pred len);
          In_channel.input_char ic = Some '\n'))

let open_log path =
  mkdir_p (Filename.dirname path);
  let terminate = not (ends_with_newline path) in
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  if terminate then begin
    output_char oc '\n';
    flush oc
  end;
  { oc; lock = Mutex.create () }

let append t fields =
  let line = to_line fields in
  Mutex.protect t.lock (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      (* per-line flush is the crash-safety contract: a killed process
         loses at most the line being written *)
      flush t.oc)

let close t = close_out t.oc

let fold path f init =
  if not (Sys.file_exists path) then init
  else
    In_channel.with_open_text path (fun ic ->
        let rec go acc =
          match In_channel.input_line ic with
          | None -> acc
          | Some line -> go (if String.trim line = "" then acc else f acc line)
        in
        go init)
