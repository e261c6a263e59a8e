(* Metric declarations live in BENCHMARK.json alone: this module reads
   them, prints a run's metrics by name with their units, keeps a history
   of runs for [--compare], and judges two histories against the declared
   bounds. *)

module Json_in = Hypart_telemetry.Json_in
module Json_out = Hypart_telemetry.Json_out

type metric = {
  name : string;
  unit_ : string;
  higher_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type benchmark = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let member key j =
  match Json_in.member key j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "BENCHMARK.json: missing %S" key)

let str = function Json_in.Str s -> s | _ -> failwith "BENCHMARK.json: expected a string"
let arr = function Json_in.Arr l -> l | _ -> failwith "BENCHMARK.json: expected an array"

let load path =
  let j = Json_in.parse (In_channel.with_open_bin path In_channel.input_all) in
  let metrics key =
    List.map
      (fun m ->
        {
          name = str (member "name" m);
          unit_ = str (member "unit" m);
          higher_better = str (member "better" m) = "higher";
          bound = (match Json_in.member "bound" m with Some (Json_in.Num f) -> Some f | _ -> None);
        })
      (arr (member key j))
  in
  {
    run_seconds = (match member "run_seconds" j with Json_in.Num f -> int_of_float f | _ -> 10);
    workloads = List.map (fun w -> str (member "name" w)) (arr (member "workloads" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

let declared b ~traced = if traced then b.per_layer else b.end_to_end

(* all the digits a float prints with; never NaN or infinite in JSON *)
let number f = if Float.is_finite f then Printf.sprintf "%.15g" f else "0"

(* Print every declared metric with its unit and sample count, then the
   result line, which is the last line of standard output.  A layer
   metric that does not apply to the workload prints 0 from 0 samples;
   any other difference between the computed and the declared set is a
   bench defect. *)
let emit b ~workload ~seed ~traced ~out (r : Workloads.result) =
  let decl = declared b ~traced in
  let computed = List.map (fun (n, _, _) -> n) r.Workloads.metrics in
  let missing =
    if traced then [] else List.filter (fun m -> not (List.mem m.name computed)) decl
  in
  let extra = List.filter (fun n -> not (List.exists (fun m -> m.name = n) decl)) computed in
  if missing <> [] || extra <> [] then
    failwith
      (Printf.sprintf "metrics out of step with BENCHMARK.json: missing [%s], undeclared [%s]"
         (String.concat " " (List.map (fun m -> m.name) missing))
         (String.concat " " extra));
  let correct = r.Workloads.attempted > 0 && r.Workloads.failed = 0 && r.Workloads.errors = [] in
  List.iter (fun e -> Printf.eprintf "%s: %s\n" workload e) r.Workloads.errors;
  Printf.printf "workload %s  seed %d  %s  attempted %d  failed %d\n" workload seed
    (if traced then "traced" else "untraced")
    r.Workloads.attempted r.Workloads.failed;
  let rows =
    List.map
      (fun m ->
        let _, v, n =
          Option.value ~default:(m.name, 0., 0)
            (List.find_opt (fun (name, _, _) -> name = m.name) r.Workloads.metrics)
        in
        Printf.printf "  %-36s %16s %-8s n=%d\n" m.name (number v) m.unit_ n;
        (m, v, n))
      decl
  in
  let metric_obj ~with_n (m, v, n) =
    ( m.name,
      Json_out.obj
        ([ ("value", number v); ("unit", Json_out.string m.unit_) ]
        @ if with_n then [ ("n", Json_out.int n) ] else []) )
  in
  let result ~with_n =
    [
      ("correct", if correct then "true" else "false");
      ("attempted", Json_out.int (max 1 r.Workloads.attempted));
      ("failed", Json_out.int r.Workloads.failed);
      ("metrics", Json_out.obj (List.map (metric_obj ~with_n) rows));
    ]
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644
    (Filename.concat out "results.jsonl") (fun oc ->
      output_string oc
        (Json_out.obj
           ([
              ("workload", Json_out.string workload);
              ("seed", Json_out.int seed);
              ("trace", Json_out.int (if traced then 1 else 0));
            ]
           @ result ~with_n:true));
      output_char oc '\n');
  print_endline (Json_out.obj (result ~with_n:false))

(* ------------------------------------------------------------------ *)
(* --compare                                                           *)

(* (workload, trace) -> metric name -> values, from a results.jsonl or
   the directory holding one *)
let history path =
  let file = if Sys.is_directory path then Filename.concat path "results.jsonl" else path in
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_bin file In_channel.input_lines
  |> List.iter (fun line ->
         if String.trim line <> "" then begin
           let j = Json_in.parse line in
           let w = str (member "workload" j) in
           let tr = match member "trace" j with Json_in.Num f -> f > 0. | _ -> false in
           match member "metrics" j with
           | Json_in.Obj kvs ->
             List.iter
               (fun (name, m) ->
                 match Json_in.member "value" m with
                 | Some (Json_in.Num v) ->
                   let key = (w, tr, name) in
                   Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
                 | _ -> ())
               kvs
           | _ -> ()
         end);
  tbl

(* Median and quartiles of each side per (workload, metric), and a
   verdict against the declared bound: a worsening beyond it is a
   regression; within it, a side whose own quartile spread exceeds the
   bound leaves the metric unresolved rather than unchanged.  Returns the
   number of regressions. *)
let compare b path_a path_b =
  let ha = history path_a and hb = history path_b in
  let regressions = ref 0 in
  Printf.printf "%-13s %-36s %24s %24s %9s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "verdict";
  let side (q1, m, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
  List.iter
    (fun w ->
      List.iter
        (fun (traced, metrics) ->
          List.iter
            (fun m ->
              let key = (w, traced, m.name) in
              match (Hashtbl.find_opt ha key, Hashtbl.find_opt hb key) with
              | Some va, Some vb ->
                let ((qa1, ma, qa3) as qa) = Stats.quartiles va
                and ((qb1, mb, qb3) as qb) = Stats.quartiles vb in
                let rel x base = if base <> 0. then x /. Float.abs base else if x = 0. then 0. else infinity in
                let change = rel (mb -. ma) ma in
                let verdict =
                  match m.bound with
                  | None -> "-"
                  | Some bound ->
                    let worse = if m.higher_better then -.change else change in
                    let spread = Float.max (rel (qa3 -. qa1) ma) (rel (qb3 -. qb1) mb) in
                    if worse > bound then begin
                      incr regressions;
                      "REGRESSED"
                    end
                    else if -.worse > bound then "improved"
                    else if spread > bound then "unresolved"
                    else "unchanged"
                in
                Printf.printf "%-13s %-36s %24s %24s %+8.1f%%  %s\n" w m.name (side qa) (side qb)
                  (100. *. change) verdict
              | _ -> ())
            metrics)
        [ (false, b.end_to_end); (true, b.per_layer) ])
    b.workloads;
  !regressions
