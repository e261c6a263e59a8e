(* The paper's driving application (§2.1): top-down global placement by
   recursive min-cut bisection with terminal propagation.  Places a
   synthetic ibm01 twin with each partitioner driving the placer — the
   weak "Reported" FM, our LIFO and CLIP FM, the multilevel engine —
   beside a random-placement floor, and reports half-perimeter
   wirelength and CPU time per placement.  A worse partitioner directly
   becomes a worse placement: the reason the paper insists partitioners
   be evaluated inside their driving application.

   Run with: dune exec examples/topdown_placement.exe *)

module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Fm_config = Hypart_fm.Fm_config
module Machine = Hypart_engine.Machine
module Table = Hypart_lab.Table
module Topdown = Hypart_placement.Topdown
module Detailed = Hypart_placement.Detailed

let runs = 3

let () =
  let h = Suite.instance ~scale:16.0 "ibm01" in
  Format.printf "placing %a@.@." H.pp h;

  let table = Table.make ~headers:[ "Partitioner"; "avg HPWL"; "CPU s/run" ] in
  let measure name place =
    let hpwl = ref 0. in
    let (), dt =
      Machine.cpu_time (fun () ->
          for i = 1 to runs do
            hpwl := !hpwl +. Topdown.hpwl h (place (Rng.create i))
          done)
    in
    Table.add_row table
      [
        name;
        Printf.sprintf "%.0f" (!hpwl /. float_of_int runs);
        Printf.sprintf "%.3f" (Machine.normalize (dt /. float_of_int runs));
      ]
  in
  let with_fm fm = { Topdown.default_config with Topdown.fm } in
  measure "random placement" (fun rng -> Topdown.random_placement rng h);
  measure "Reported LIFO FM" (fun rng ->
      Topdown.place ~config:(with_fm Fm_config.reported_lifo) rng h);
  measure "Our LIFO FM" (fun rng ->
      Topdown.place ~config:(with_fm Fm_config.strong_lifo) rng h);
  measure "Our CLIP FM" (fun rng ->
      Topdown.place ~config:(with_fm Fm_config.strong_clip) rng h);
  measure "multilevel" (fun rng ->
      Topdown.place
        ~config:{ Topdown.default_config with Topdown.ml_threshold = 150 }
        rng h);
  Table.print table;

  let t0 = Sys.time () in
  let strong = Topdown.place (Rng.create 2) h in
  let t_strong = Sys.time () -. t0 in

  (* the full §2.1 pipeline: coarse placement -> row legalization ->
     detailed placement by stochastic hill-climbing *)
  let legal = Detailed.legalize h strong in
  Printf.printf "\nlegalized onto %d rows:           %11.0f\n"
    legal.Detailed.rows.Detailed.num_rows
    (Topdown.hpwl h legal.Detailed.placement);
  let t0 = Sys.time () in
  let refined, stats = Detailed.anneal (Rng.create 3) h legal in
  let t_anneal = Sys.time () -. t0 in
  Printf.printf "after annealing (%d/%d accepted):  %10.0f  (%.2fs)\n"
    stats.Detailed.accepted stats.Detailed.attempted
    (Topdown.hpwl h refined.Detailed.placement)
    t_anneal;

  (* the implied-runtime observation of §2.1: a placement tool budgets
     roughly 1 CPU minute per 6000 cells, so partitioning runtimes must
     be seconds, not minutes *)
  let budget = float_of_int (H.num_vertices h) /. 6000.0 *. 60.0 in
  Printf.printf
    "\nuse-model budget for this size (1 min / 6000 cells): %.1fs; full pipeline used %.2fs\n"
    budget
    (t_strong +. t_anneal)
