module Engine = Hypart_engine.Engine

let sa =
  Engine.make ~name:"sa"
    ~description:
      "simulated annealing: single-vertex flips, geometric cooling, \
       quadratic balance penalty"
    (fun rng problem initial ->
      let r = Sa_partitioner.run ?initial rng problem in
      {
        Engine.Result.solution = r.Sa_partitioner.solution;
        cut = r.Sa_partitioner.cut;
        legal = r.Sa_partitioner.legal;
        stats =
          [
            ("accepted", float_of_int r.Sa_partitioner.accepted);
            ("attempted", float_of_int r.Sa_partitioner.attempted);
          ];
      })
