module Trace = Hypart_telemetry.Trace
module Json_in = Hypart_telemetry.Json_in

type span = {
  name : string;
  tid : int;
  ts_us : float;
  dur_us : float;
  args : (string * float) list;
}

let of_trace_events events =
  List.map
    (fun (e : Trace.event) ->
      {
        name = e.Trace.name;
        tid = e.Trace.tid;
        ts_us = e.Trace.ts_us;
        dur_us = e.Trace.dur_us;
        args = e.Trace.args;
      })
    events

let of_chrome_json text =
  let num key ev =
    match Json_in.member key ev with Some (Json_in.Num f) -> f | _ -> 0.
  in
  let complete ev =
    match (Json_in.member "ph" ev, Json_in.member "name" ev) with
    | Some (Json_in.Str "X"), Some (Json_in.Str name) ->
      let args =
        match Json_in.member "args" ev with
        | Some (Json_in.Obj kvs) ->
          List.filter_map
            (function k, Json_in.Num v -> Some (k, v) | _ -> None)
            kvs
        | _ -> []
      in
      Some
        {
          name;
          tid = int_of_float (num "tid" ev);
          ts_us = num "ts" ev;
          dur_us = num "dur" ev;
          args;
        }
    | _ -> None
  in
  match Json_in.member "traceEvents" (Json_in.parse text) with
  | Some (Json_in.Arr evs) -> List.filter_map complete evs
  | _ -> failwith "trace: no traceEvents array"

type self_time = {
  span_name : string;
  thread : int;
  calls : int;
  total_us : float;
  self_us : float;
}

(* One thread's spans in start order (a parent sorts before a child that
   starts at the same instant because it lasts longer).  A stack holds
   the open ancestors: a span pops every ancestor that ended before it
   starts, and its duration, clipped to the parent's end, is charged to
   the parent as covered time. *)
let thread_self spans =
  let spans =
    List.sort
      (fun a b ->
        match Float.compare a.ts_us b.ts_us with
        | 0 -> Float.compare b.dur_us a.dur_us
        | c -> c)
      spans
  in
  let covered = Hashtbl.create 64 in
  let stack = ref [] in
  List.iteri
    (fun i s ->
      let rec pop () =
        match !stack with
        | (_, p) :: rest when p.ts_us +. p.dur_us <= s.ts_us ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | (pi, p) :: _ ->
        let inside = Float.min (s.ts_us +. s.dur_us) (p.ts_us +. p.dur_us) -. s.ts_us in
        let prev = Option.value ~default:0. (Hashtbl.find_opt covered pi) in
        Hashtbl.replace covered pi (prev +. Float.max 0. inside)
      | [] -> ());
      stack := (i, s) :: !stack)
    spans;
  List.mapi
    (fun i s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt covered i) in
      (s, Float.max 0. (s.dur_us -. c)))
    spans

let self_times ?(keep = fun _ -> true) spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if keep s.name then
        Hashtbl.replace by_tid s.tid
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  let acc = Hashtbl.create 32 in
  Hashtbl.iter
    (fun tid spans ->
      List.iter
        (fun (s, self) ->
          let key = (s.name, tid) in
          let calls, total, selfs =
            Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc key)
          in
          Hashtbl.replace acc key (calls + 1, total +. s.dur_us, selfs +. self))
        (thread_self spans))
    by_tid;
  Hashtbl.fold
    (fun (span_name, thread) (calls, total_us, self_us) l ->
      { span_name; thread; calls; total_us; self_us } :: l)
    acc []
  |> List.sort (fun a b -> compare (a.span_name, a.thread) (b.span_name, b.thread))

let self_us rows name =
  List.fold_left
    (fun acc r -> if r.span_name = name then acc +. r.self_us else acc)
    0. rows

let request_id s = List.assoc_opt "request_id" s.args

let for_requests ids spans =
  List.filter
    (fun s ->
      match request_id s with Some r -> Hashtbl.mem ids r | None -> false)
    spans
