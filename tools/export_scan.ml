(* Export scan: every value a library interface exports is named
   somewhere outside its own module, or says why it is kept.

   For each [val] in lib/*/*.mli, count the .ml files under lib, bin,
   bench and examples, other than the module's own .ml, whose code
   names it: the value's identifier appears as a token, bare or
   qualified.  Comments and string literals do not count, and neither
   do tests.  An export named nowhere passes only when the line
   directly above its [val] is a comment [(* kept: <reason> *)], and
   such a line above an export that is named outside its module is
   stale and fails too.  Values in [module type] signatures are not
   exports and are skipped.

   Prints each failing export and a summary, and exits 1 when any
   export fails.  Run from the repository root:

     dune exec tools/export_scan.exe *)

module S = Set.Make (String)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [dir]'s files with suffix [ext], recursively, skipping build output *)
let rec files_under ext dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then
             if e = "_build" then [] else files_under ext p
           else if Filename.check_suffix e ext then [ p ]
           else [])

let is_ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* [src] with comments, string literals and char literals blanked *)
let strip src =
  let n = String.length src in
  let b = Bytes.of_string src in
  let blank i = Bytes.set b i ' ' in
  let i = ref 0 and depth = ref 0 in
  while !i < n do
    let c = src.[!i] and next = if !i + 1 < n then src.[!i + 1] else ' ' in
    if c = '(' && next = '*' then begin
      blank !i; blank (!i + 1); i := !i + 2; incr depth
    end
    else if !depth > 0 && c = '*' && next = ')' then begin
      blank !i; blank (!i + 1); i := !i + 2; decr depth
    end
    else if c = '"' then begin
      (* a string, also inside a comment, as OCaml lexes it *)
      blank !i; incr i;
      while !i < n && src.[!i] <> '"' do
        if src.[!i] = '\\' && !i + 1 < n then (blank !i; incr i);
        blank !i; incr i
      done;
      if !i < n then (blank !i; incr i)
    end
    else if !depth > 0 then (blank !i; incr i)
    else if c = '\'' && next = '\\' then begin
      (* an escaped char literal, up to its closing quote *)
      let j = ref (!i + 2) in
      while !j < n && src.[!j] <> '\'' do incr j done;
      for k = !i to min (n - 1) !j do blank k done;
      i := !j + 1
    end
    else if c = '\'' && !i + 2 < n && src.[!i + 2] = '\''
            && (!i = 0 || not (is_ident src.[!i - 1])) then begin
      blank !i; blank (!i + 1); blank (!i + 2); i := !i + 3
    end
    else incr i
  done;
  Bytes.to_string b

(* the identifier tokens of a .ml file's code *)
let tokens path =
  let code = strip (read_file path) in
  let n = String.length code in
  let acc = ref S.empty and i = ref 0 in
  while !i < n do
    if is_ident code.[!i] then begin
      let s = !i in
      while !i < n && is_ident code.[!i] do incr i done;
      acc := S.add (String.sub code s (!i - s)) !acc
    end
    else incr i
  done;
  !acc

type export = {
  mli : string;
  line : int;
  value : string;
  kept : bool;  (* a [(* kept: ... *)] line sits above the [val] *)
}

let val_re = Str.regexp "^ *val +\\([a-z_][A-Za-z0-9_']*\\)"
let module_type_re = Str.regexp "^\\( *\\)module type .*\\bsig *$"
let kept_re = Str.regexp "^ *(\\* kept: .+\\*) *$"

let exports_of mli =
  let lines = String.split_on_char '\n' (read_file mli) |> Array.of_list in
  (* the indentation of the [module type] being skipped, if any *)
  let skipping = ref None in
  List.concat
    (List.mapi
       (fun i l ->
         match !skipping with
         | Some ind ->
           if String.trim l = "end" && String.index_opt l 'e' = Some ind then
             skipping := None;
           []
         | None ->
           if Str.string_match module_type_re l 0 then begin
             skipping := Some (String.length (Str.matched_group 1 l));
             []
           end
           else if Str.string_match val_re l 0 then
             let value = Str.matched_group 1 l in
             let kept = i > 0 && Str.string_match kept_re lines.(i - 1) 0 in
             [ { mli; line = i + 1; value; kept } ]
           else [])
       (Array.to_list lines))

let () =
  let mlis = files_under ".mli" "lib" in
  let users =
    List.concat_map (files_under ".ml") [ "lib"; "bin"; "bench"; "examples" ]
    |> List.map (fun path -> (path, tokens path))
  in
  let exports = List.concat_map exports_of mlis in
  let own e = Filename.remove_extension e.mli ^ ".ml" in
  let named e =
    List.exists (fun (p, toks) -> p <> own e && S.mem e.value toks) users
  in
  let kept, failing =
    List.partition (fun e -> e.kept) (List.filter (fun e -> not (named e)) exports)
  in
  let stale = List.filter (fun e -> e.kept && named e) exports in
  List.iter
    (fun e ->
      Printf.printf
        "%s:%d: %s is named nowhere outside %s, and no (* kept: *) line gives a reason\n"
        e.mli e.line e.value (Filename.basename (own e)))
    failing;
  List.iter
    (fun e ->
      Printf.printf "%s:%d: %s is named outside %s, so its (* kept: *) line is stale\n"
        e.mli e.line e.value (Filename.basename (own e)))
    stale;
  Printf.printf
    "%d exports in %d interfaces: %d kept with a reason, %d named nowhere, %d stale kept\n"
    (List.length exports) (List.length mlis) (List.length kept)
    (List.length failing) (List.length stale);
  if failing <> [] || stale <> [] then exit 1
