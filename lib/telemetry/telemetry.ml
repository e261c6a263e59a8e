let enable = Control.enable
let enable_metrics = Control.enable_metrics
let disable = Control.disable
let is_enabled = Control.is_enabled
let with_enabled = Control.with_enabled

let reset () =
  Metrics.reset ();
  Trace.reset ()

type phase = {
  name : string;
  calls : int;
  total_us : float;
  mean_us : float;
  max_us : float;
}

let phase_summary () =
  let tbl : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun (e : Trace.event) ->
      let calls, total, mx =
        match Hashtbl.find_opt tbl e.Trace.name with
        | Some cell -> cell
        | None ->
          let cell = (ref 0, ref 0.0, ref 0.0) in
          Hashtbl.add tbl e.Trace.name cell;
          cell
      in
      incr calls;
      total := !total +. e.Trace.dur_us;
      if e.Trace.dur_us > !mx then mx := e.Trace.dur_us)
    (Trace.events ());
  Hashtbl.fold
    (fun name (calls, total, mx) acc ->
      {
        name;
        calls = !calls;
        total_us = !total;
        mean_us = !total /. float_of_int (max 1 !calls);
        max_us = !mx;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.total_us a.total_us)

let pp_phase_summary ppf () =
  let phases = phase_summary () in
  if phases = [] then
    Format.fprintf ppf "no spans recorded (telemetry disabled?)@."
  else begin
    Format.fprintf ppf "%-24s %10s %12s %12s %12s@." "phase" "calls"
      "total (ms)" "mean (ms)" "max (ms)";
    Format.fprintf ppf "%s@." (String.make 74 '-');
    List.iter
      (fun p ->
        Format.fprintf ppf "%-24s %10d %12.2f %12.3f %12.3f@." p.name p.calls
          (p.total_us /. 1e3) (p.mean_us /. 1e3) (p.max_us /. 1e3))
      phases
  end
