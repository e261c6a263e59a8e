module J = Hypart_telemetry.Json_out
module Clock = Hypart_telemetry.Clock
module Metrics = Hypart_telemetry.Metrics

type status =
  | Queued
  | Running
  | Done
  | Served_cached
  | Deadline_exceeded
  | Failed of string

let status_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Served_cached -> "cached"
  | Deadline_exceeded -> "deadline_exceeded"
  | Failed _ -> "failed"

type job = {
  id : int;
  request_id : string;
  engine : string;
  key : string;
  seed : int;
  starts : int;
  submitted_s : float;
  mutable status : status;
  mutable started_s : float option;
  mutable finished_s : float option;
  mutable cut : int option;
  mutable legal : bool option;
  mutable seconds : float;
  mutable phases : (string * float) list;
  mutable wall_seconds : float;
}

type t = {
  lock : Mutex.t;
  by_id : (int, job) Hashtbl.t;
  order : int Queue.t;  (* insertion order, for retention eviction *)
  retention : int;
  mutable next_id : int;
}

let create ~retention =
  if retention < 1 then invalid_arg "Job_table.create: retention must be >= 1";
  {
    lock = Mutex.create ();
    by_id = Hashtbl.create 64;
    order = Queue.create ();
    retention;
    next_id = 1;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add t ~request_id ~engine ~key ~seed ~starts =
  with_lock t (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let job =
        {
          id;
          request_id;
          engine;
          key;
          seed;
          starts;
          submitted_s = Clock.now_s ();
          status = Queued;
          started_s = None;
          finished_s = None;
          cut = None;
          legal = None;
          seconds = 0.;
          phases = [];
          wall_seconds = 0.;
        }
      in
      Hashtbl.replace t.by_id id job;
      Queue.push id t.order;
      if Queue.length t.order > t.retention then
        Hashtbl.remove t.by_id (Queue.pop t.order);
      job)

let is_terminal = function
  | Done | Served_cached | Deadline_exceeded | Failed _ -> true
  | Queued | Running -> false

let update t job status =
  with_lock t (fun () ->
      let now = Clock.now_s () in
      (match status with
      | Running -> if job.started_s = None then job.started_s <- Some now
      | s when is_terminal s ->
        if job.finished_s = None then job.finished_s <- Some now
      | _ -> ());
      job.status <- status)

type phase = Queue_wait | Decode | Key | Parse | Fingerprint | Engine | Encode

(* in the order a request passes through them *)
let phase_names =
  [| "queue_wait"; "decode"; "key"; "parse"; "fingerprint"; "engine"; "encode" |]

let phase_index = function
  | Queue_wait -> 0
  | Decode -> 1
  | Key -> 2
  | Parse -> 3
  | Fingerprint -> 4
  | Engine -> 5
  | Encode -> 6

let phase_metrics = Array.map (fun n -> "server.phase_seconds." ^ n) phase_names

type timing = { accepted_s : float; seconds : float array }

let timing ~accepted_s ~taken_s =
  let seconds = Array.make (Array.length phase_names) 0. in
  seconds.(phase_index Queue_wait) <- taken_s -. accepted_s;
  { accepted_s; seconds }

let accepted_s tm = tm.accepted_s

let timed tm phase f =
  let t0 = Clock.now_s () in
  let r = f () in
  let i = phase_index phase in
  tm.seconds.(i) <- tm.seconds.(i) +. (Clock.now_s () -. t0);
  r

let record_phases t job tm =
  let phases =
    Array.to_list
      (Array.mapi
         (fun i name ->
           Metrics.observe phase_metrics.(i) tm.seconds.(i);
           (name, tm.seconds.(i)))
         phase_names)
  in
  let wall = Clock.now_s () -. tm.accepted_s in
  with_lock t (fun () ->
      job.phases <- phases;
      job.wall_seconds <- wall)

let find t id = with_lock t (fun () -> Hashtbl.find_opt t.by_id id)

let total t = with_lock t (fun () -> t.next_id - 1)

let job_json t job =
  with_lock t (fun () ->
      let detail =
        match job.status with
        | Failed msg -> [ ("detail", J.string msg) ]
        | _ -> []
      in
      let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
      let phases =
        match job.phases with
        | [] -> []
        | ps ->
          [
            ("phases", J.obj (List.map (fun (k, v) -> (k, J.number v)) ps));
            ("wall_seconds", J.number job.wall_seconds);
          ]
      in
      let now = Clock.now_s () in
      (* queue wait: submission to start of execution (to termination
         for jobs answered without running, e.g. cache hits; to "now"
         while still queued).  exec: start to finish (to "now" while
         running). *)
      let queue_end =
        match (job.started_s, job.finished_s) with
        | Some s, _ -> s
        | None, Some f -> f
        | None, None -> now
      in
      let exec =
        match job.started_s with
        | None -> []
        | Some s ->
          let e = match job.finished_s with Some f -> f | None -> now in
          [ ("exec_seconds", J.number (e -. s)) ]
      in
      J.obj
        ([
           ("job", J.int job.id);
           ("request_id", J.string job.request_id);
           ("status", J.string (status_name job.status));
           ("engine", J.string job.engine);
           ("key", J.string job.key);
           ("seed", J.int job.seed);
           ("starts", J.int job.starts);
           ("age_seconds", J.number (now -. job.submitted_s));
           ("queue_seconds", J.number (queue_end -. job.submitted_s));
         ]
        @ exec
        @ [ ("seconds", J.number job.seconds) ]
        @ opt "cut" J.int job.cut
        @ opt "legal" (fun b -> if b then "true" else "false") job.legal
        @ phases
        @ detail))
