module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config
module Ml = Hypart_multilevel.Ml_partitioner
module Descriptive = Hypart_stats.Descriptive
module Machine = Hypart_engine.Machine
module Table = Hypart_lab.Table

(* ------------------------------------------------------------------ *)
(* Placement quality                                                   *)
(* ------------------------------------------------------------------ *)

let placement_table ?(scale = 8.0) ?(runs = 3) ~instance ~seed () =
  let module Topdown = Hypart_placement.Topdown in
  let h = Suite.instance ~scale instance in
  let table =
    Table.make ~headers:[ "Partitioner"; "avg HPWL"; "CPU s/run" ]
  in
  let measure name place =
    let hpwls = Array.make runs 0.0 in
    let (), dt =
      Machine.cpu_time (fun () ->
          for i = 0 to runs - 1 do
            hpwls.(i) <- Topdown.hpwl h (place (Rng.create (seed + i)))
          done)
    in
    let dt = dt /. float_of_int runs in
    Table.add_row table
      [
        name;
        Printf.sprintf "%.0f" (Descriptive.mean hpwls);
        Printf.sprintf "%.3f" (Machine.normalize dt);
      ]
  in
  measure "random placement" (fun rng -> Topdown.random_placement rng h);
  let with_fm fm = { Topdown.default_config with Topdown.fm } in
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
  table

(* ------------------------------------------------------------------ *)
(* Runtime regimes                                                     *)
(* ------------------------------------------------------------------ *)

let runtime_regime_table ?(include_750k = false) ?(tolerance = 0.02) ~seed () =
  let table =
    Table.make
      ~headers:[ "Instance"; "cells"; "ML cut"; "CPU s"; "budget s"; "fits?" ]
  in
  let rows =
    [ ("ibm01", 1.0); ("ibm05", 1.0); ("ibm10", 1.0); ("ibm14", 1.0);
      ("ibm18", 1.0) ]
    @ (if include_750k then [ ("ibm18", 0.28) ] else [])
  in
  List.iter
    (fun (name, scale) ->
      let h = Suite.instance ~scale name in
      let cells = Hypart_hypergraph.Hypergraph.num_vertices h in
      let problem = Problem.make ~tolerance h in
      let r, dt =
        Machine.cpu_time (fun () ->
            Ml.run ~config:Ml.ml_lifo (Rng.create seed) problem)
      in
      let dt = Machine.normalize dt in
      (* 1 minute per 6000 cells for the whole placement; partitioning
         gets roughly the level-0 share of the recursive bisection,
         which the paper quotes as ~5s at 25k cells: budget = cells/5000 s *)
      let budget = float_of_int cells /. 5000.0 in
      Table.add_row table
        [
          (if scale = 1.0 then name else Printf.sprintf "%s x%.2f" name scale);
          string_of_int cells;
          string_of_int r.Fm.cut;
          Printf.sprintf "%.1f" dt;
          Printf.sprintf "%.1f" budget;
          (if dt <= budget then "yes" else "NO");
        ])
    rows;
  table

(* ------------------------------------------------------------------ *)
(* Fixed terminals                                                     *)
(* ------------------------------------------------------------------ *)

let fixed_terminals_table ?(scale = 8.0) ?(runs = 12) ?(tolerance = 0.10)
    ?(fractions = [ 0.0; 0.02; 0.10; 0.25; 0.50 ]) ~instance ~seed () =
  let h = Suite.instance ~scale instance in
  let n = Hypart_hypergraph.Hypergraph.num_vertices h in
  let table =
    Table.make
      ~headers:[ "fixed %"; "min/avg cut"; "stddev"; "avg passes"; "CPU s/run" ]
  in
  List.iter
    (fun fraction ->
      let rng = Rng.create seed in
      let fixed = Array.make n (-1) in
      let k = int_of_float (fraction *. float_of_int n) in
      let sample = Rng.sample_distinct rng ~n:k ~universe:n in
      Array.iteri (fun i v -> fixed.(v) <- i mod 2) sample;
      let problem = Problem.make ~fixed ~tolerance h in
      let cuts = Array.make runs 0 in
      let passes = ref 0 in
      let (), dt =
        Machine.cpu_time (fun () ->
            for i = 0 to runs - 1 do
              let r = Fm.run_random_start rng problem in
              cuts.(i) <- r.Fm.cut;
              passes := !passes + r.Fm.stats.Fm.passes
            done)
      in
      let dt = dt /. float_of_int runs in
      Table.add_row table
        [
          Printf.sprintf "%.0f" (100. *. fraction);
          Descriptive.min_avg cuts;
          Printf.sprintf "%.1f" (Descriptive.stddev (Descriptive.of_ints cuts));
          Printf.sprintf "%.1f" (float_of_int !passes /. float_of_int runs);
          Printf.sprintf "%.3f" (Machine.normalize dt);
        ])
    fractions;
  table

(* ------------------------------------------------------------------ *)
(* Corking diagnostic                                                  *)
(* ------------------------------------------------------------------ *)

let corking_report ?(scale = 4.0) ?(runs = 10) ?(tolerance = 0.02) ~instance
    ~seed () =
  let problem = Problem.make ~tolerance (Suite.instance ~scale instance) in
  (* A corked pass stalls: few (or zero) moves are made before the head
     of the zero-gain bucket blocks selection.  The telling statistics
     are therefore moves per pass and the rate of entirely empty
     passes, alongside the quality collapse. *)
  let table =
    Table.make
      ~headers:
        [ "CLIP variant"; "min/avg cut"; "moves/pass"; "empty passes/run" ]
  in
  List.iter
    (fun (config, name) ->
      let rng = Rng.create seed in
      let cuts = Array.make runs 0 in
      let moves = ref 0 and passes = ref 0 and empties = ref 0 in
      for r = 0 to runs - 1 do
        let res = Fm.run_random_start ~config rng problem in
        cuts.(r) <- res.Fm.cut;
        moves := !moves + res.Fm.stats.Fm.moves;
        passes := !passes + res.Fm.stats.Fm.passes;
        empties := !empties + res.Fm.stats.Fm.empty_passes
      done;
      Table.add_row table
        [
          name;
          Descriptive.min_avg cuts;
          Printf.sprintf "%.0f" (float_of_int !moves /. float_of_int (max 1 !passes));
          Printf.sprintf "%.2f" (float_of_int !empties /. float_of_int runs);
        ])
    [
      (Fm_config.reported_clip, "Reported CLIP (no fix)");
      (Fm_config.strong_clip, "Our CLIP (corking fix)");
    ];
  table
