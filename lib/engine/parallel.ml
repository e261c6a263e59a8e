module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace

let recommended_domains () = min 8 (Domain.recommended_domain_count ())

let map_seeds ?domains ~seeds f =
  let domains =
    match domains with
    | Some d ->
      if d < 1 then invalid_arg "Parallel.map_seeds: domains must be >= 1";
      d
    | None -> recommended_domains ()
  in
  let seeds = Array.of_list seeds in
  let n = Array.length seeds in
  if n = 0 then []
  else begin
    let domains = min domains n in
    let results = Array.make n None in
    (* each worker claims the next unclaimed seed, so seeds of uneven
       cost spread over the domains; results land by index *)
    let next = Atomic.make 0 in
    (* a worker runs under its caller's cancel hook and returns the
       first exception its seeds raised, if any, with its domain's CPU
       seconds, which the caller charges to its own clock; a failure
       stops every worker from claiming more seeds *)
    let hook = Cancel.current () in
    let worker d () =
      Machine.cpu_time @@ fun () ->
      Cancel.with_hook hook @@ fun () ->
      Trace.begin_span "parallel.worker";
      let count = ref 0 in
      let rec claim () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (f seeds.(i));
          incr count;
          claim ()
        end
      in
      let failure =
        match claim () with
        | () -> None
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set next n;
          Some (e, bt)
      in
      Trace.end_span "parallel.worker"
        ~args:[ ("worker", float_of_int d); ("seeds", float_of_int !count) ];
      Metrics.incr "parallel.seeds" ~by:!count;
      failure
    in
    Trace.begin_span "parallel.map_seeds";
    let handles = Array.init domains (fun d -> Domain.spawn (worker d)) in
    (* every worker is joined before any failure reaches the caller *)
    let joined = Array.map Domain.join handles in
    Machine.charge_joined (Array.fold_left (fun acc (_, s) -> acc +. s) 0.0 joined);
    Trace.end_span "parallel.map_seeds"
      ~args:[ ("domains", float_of_int domains); ("seeds", float_of_int n) ];
    Metrics.incr "parallel.fanouts";
    Array.iter
      (function
        | Some (e, bt), _ -> Printexc.raise_with_backtrace e bt | None, _ -> ())
      joined;
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false)
         results)
  end
