(* §2.1 of the paper observes that in the top-down placement use model
   "almost all hypergraph partitioning instances have many vertices
   fixed in partitions due to terminal propagation or pad locations",
   and that fixed terminals "fundamentally change the nature of the
   partitioning problem" (Caldwell, Kahng & Markov, DAC'99).

   This example fixes a growing fraction of vertices (split evenly
   between the sides, as terminal propagation produces) and measures
   what happens to cut quality, runtime and start-to-start variance:
   fixed instances are "easier" — faster convergence and much smaller
   spread — which is why heuristics tuned only on unfixed benchmarks
   can be mis-ranked for the real use model.

   Run with: dune exec examples/fixed_terminals.exe
   (the same campaign runs via: dune exec bin/hypart.exe -- fixed --scale 8 --seed 5) *)

module H = Hypart_hypergraph.Hypergraph
module Suite = Hypart_generator.Ibm_suite
module Campaigns = Hypart_harness.Campaigns
module Manifest = Hypart_lab.Manifest
module Table = Hypart_lab.Table

let () =
  let h = Suite.instance ~scale:8.0 "ibm01" in
  Format.printf "%a@.@." H.pp h;
  let e = Campaigns.fixed ~scale:8.0 ~runs:12 ~instance:"ibm01" in
  let manifest = Manifest.make ~name:"fixed" ~seed:5 ~experiments:[ e ] in
  let report, _ = Campaigns.execute ~store:None manifest in
  Table.print (Campaigns.fixed_table report e);
  print_newline ();
  print_endline
    "Reading the table: as the fixed fraction grows, the start-to-start\n\
     standard deviation collapses and runs converge in fewer passes —\n\
     fixed instances are easier and less noisy, so conclusions drawn\n\
     only from unfixed benchmarks may not transfer to the use model."
