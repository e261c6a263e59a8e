(* End-to-end benchmark entry point; README.md in this directory has the
   workloads, the metrics and how to run it.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
         one run of one workload; the last line of standard output is
         its result as JSON
     main.exe [--seed N] [--seconds S] [--traced]
         every workload, each in its own child process (and a traced run
         of each with --traced)
     main.exe --smoke
         every workload at tiny sizes, traced and untraced, checking that
         every declared metric prints with its unit and nothing fails;
         files go to DIR/smoke (with --workload: one run at tiny sizes)
     main.exe --compare A B
         median and quartiles per (workload, metric) of two result
         histories, judged against the declared bounds

   Common options: --out DIR (default _build/bench-e2e), --hypart EXE
   (default: the CLI built next to this executable), --benchmark FILE
   (default BENCHMARK.json). *)

module Json_in = Hypart_telemetry.Json_in
open E2e_bench

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float option;
  mutable traced : bool;
  mutable out : string;
  mutable hypart : string;
  mutable benchmark : string;
  mutable smoke : bool;
  mutable compare : (string * string) option;
}

let usage () =
  prerr_endline
    "usage: main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]\n\
    \                [--out DIR] [--hypart EXE] [--benchmark FILE]\n\
    \       main.exe --smoke | --compare A B";
  exit 2

let parse argv =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = None;
      traced = false;
      out = "_build/bench-e2e";
      hypart =
        Filename.concat (Filename.dirname Sys.executable_name) "../../bin/hypart.exe";
      benchmark = "BENCHMARK.json";
      smoke = false;
      compare = None;
    }
  in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> o
    | "--workload" :: w :: rest -> o.workload <- Some w; go rest
    | "--seed" :: n :: rest -> o.seed <- int_arg n; go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some v when v > 0. -> o.seconds <- Some v | _ -> usage ());
      go rest
    | "--trace" :: t :: rest -> o.traced <- int_arg t <> 0; go rest
    | "--traced" :: rest -> o.traced <- true; go rest
    | "--out" :: d :: rest -> o.out <- d; go rest
    | "--hypart" :: e :: rest -> o.hypart <- e; go rest
    | "--benchmark" :: f :: rest -> o.benchmark <- f; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--compare" :: a :: b :: rest -> o.compare <- Some (a, b); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let absolute path =
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

(* one workload in this process *)
let single o b name =
  if not (List.mem name b.Report.workloads) then begin
    Printf.eprintf "unknown workload %s (declared: %s)\n" name (String.concat " " b.Report.workloads);
    exit 2
  end;
  mkdir_p o.out;
  let ctx =
    {
      Workloads.exe = absolute o.hypart;
      dir = absolute o.out;
      seed = o.seed;
      seconds = Option.value o.seconds ~default:(float_of_int b.Report.run_seconds);
      tiny = o.smoke;
    }
  in
  Report.emit b ~workload:name ~seed:o.seed ~traced:o.traced ~out:o.out
    (Workloads.run ~name ~traced:o.traced ctx)

(* Run one workload in a child process, echo its output (the smoke run
   prints one line instead) and return its result line.  [None] when the
   child failed or printed no result. *)
let child o ~seconds ~traced name =
  let args =
    [ "--workload"; name; "--seed"; string_of_int o.seed; "--seconds"; seconds;
      "--trace"; (if traced then "1" else "0"); "--out"; o.out; "--hypart"; o.hypart;
      "--benchmark"; o.benchmark ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let lines = In_channel.input_lines ic in
  if o.smoke then
    Printf.printf "smoke: %s %s, %d lines\n" name (if traced then "traced" else "untraced")
      (List.length lines)
  else List.iter print_endline lines;
  flush stdout;
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> Json_in.parse_result last |> Result.to_option
  | _ -> None

(* the smoke assertions on one result line: every declared metric with its
   unit, nothing failed *)
let smoke_problems b ~traced name result =
  match result with
  | None -> [ name ^ ": no result" ]
  | Some j ->
    let metrics = match Json_in.member "metrics" j with Some (Json_in.Obj kvs) -> kvs | _ -> [] in
    let unit_of m = Option.bind (List.assoc_opt m metrics) (Json_in.member "unit") in
    List.filter_map
      (fun (m : Report.metric) ->
        match unit_of m.Report.name with
        | Some (Json_in.Str u) when u = m.Report.unit_ -> None
        | _ -> Some (Printf.sprintf "%s: metric %s missing or not in %s" name m.Report.name m.Report.unit_))
      (Report.declared b ~traced)
    @ (match (Json_in.member "correct" j, Json_in.member "failed" j) with
      | Some (Json_in.Bool true), Some (Json_in.Num 0.) -> []
      | _ -> [ name ^ ": failed operations" ])

let () =
  let o = parse Sys.argv in
  let b = Report.load o.benchmark in
  match o.compare with
  | Some (side_a, side_b) -> exit (if Report.compare b side_a side_b > 0 then 1 else 0)
  | None -> (
    match o.workload with
    | Some name -> single o b name
    | None ->
      let seconds =
        match o.seconds with
        | Some s -> s
        | None -> if o.smoke then 0.3 else float_of_int b.Report.run_seconds
      in
      (* smoke results stay out of the history --compare reads *)
      let o = if o.smoke then { o with out = Filename.concat o.out "smoke" } else o in
      mkdir_p o.out;
      let traces = if o.smoke || o.traced then [ false; true ] else [ false ] in
      let problems =
        List.concat_map
          (fun name ->
            List.concat_map
              (fun traced ->
                let r = child o ~seconds:(Printf.sprintf "%g" seconds) ~traced name in
                smoke_problems b ~traced name r)
              traces)
          b.Report.workloads
      in
      List.iter prerr_endline problems;
      exit (if problems = [] then 0 else 1))
