(* Attribution for stored results: which code produced them and on what
   machine.  Both stamps are cheap and cached for the process. *)

let read_first_line path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> try Some (input_line ic) with End_of_file -> None)

(* `git describe --always --dirty` of the working directory; anything
   going wrong (no git, not a checkout, no permissions) degrades to
   "unknown" — provenance must never fail an experiment. *)
let compute_git_describe () =
  try
    let tmp = Filename.temp_file "hypart_git" ".txt" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        let cmd =
          Printf.sprintf "git describe --always --dirty > %s 2>/dev/null"
            (Filename.quote tmp)
        in
        if Sys.command cmd <> 0 then "unknown"
        else
          match read_first_line tmp with
          | Some line when String.trim line <> "" -> String.trim line
          | _ -> "unknown")
  with _ -> "unknown"

(* computed once behind a mutex rather than a top-level [lazy]: OCaml 5
   raises [CamlinternalLazy.Undefined] when two domains force the same
   lazy at once, and the daemon's workers, evolve and the orchestrator
   all stamp results from several domains *)
let git_lock = Mutex.create ()
let git = ref None

let git_describe () =
  Mutex.protect git_lock (fun () ->
      match !git with
      | Some g -> g
      | None ->
        let g = compute_git_describe () in
        git := Some g;
        g)
let machine_factor () = Hypart_engine.Machine.normalization_factor ()
