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
    (* static block partition: domain d owns seeds [lo, hi) *)
    let worker d () =
      let lo = d * n / domains and hi = (d + 1) * n / domains in
      Trace.begin_span "parallel.worker";
      for i = lo to hi - 1 do
        results.(i) <- Some (f seeds.(i))
      done;
      Trace.end_span "parallel.worker"
        ~args:[ ("block", float_of_int d); ("seeds", float_of_int (hi - lo)) ];
      Metrics.incr "parallel.seeds" ~by:(hi - lo)
    in
    Trace.begin_span "parallel.map_seeds";
    let handles = Array.init domains (fun d -> Domain.spawn (worker d)) in
    Array.iter Domain.join handles;
    Trace.end_span "parallel.map_seeds"
      ~args:[ ("domains", float_of_int domains); ("seeds", float_of_int n) ];
    Metrics.incr "parallel.fanouts";
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false)
         results)
  end
