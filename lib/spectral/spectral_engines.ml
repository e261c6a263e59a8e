module Engine = Hypart_engine.Engine
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem

let spectral =
  Engine.make ~name:"spectral"
    ~description:
      "EIG1 spectral ratio cut: Fiedler vector plus linear-ordering sweep \
       (no balance constraint)"
    (fun rng problem _initial ->
      let h = problem.Problem.hypergraph in
      let r = Spectral.run rng h in
      {
        Engine.Result.solution = r.Spectral.solution;
        cut = r.Spectral.cut;
        legal = Bipartition.is_legal r.Spectral.solution problem.Problem.balance;
        stats =
          [
            ("ratio_cut", r.Spectral.ratio_cut);
            ("iterations", float_of_int r.Spectral.iterations);
          ];
      })
