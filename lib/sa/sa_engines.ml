module Engine = Hypart_engine.Engine

let sa =
  Engine.make ~name:"sa"
    ~description:
      "simulated annealing: single-vertex flips, geometric cooling, \
       quadratic balance penalty"
    (fun rng problem initial -> Sa_partitioner.run ?initial rng problem)
