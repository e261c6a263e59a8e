module Engine = Hypart_engine.Engine
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem

let kl =
  Engine.make ~name:"kl"
    ~description:
      "Kernighan-Lin pair swaps on the clique expansion (equal-cardinality \
       bisection, O(n^2) historical baseline)"
    (fun rng problem initial ->
      let h = problem.Problem.hypergraph in
      let r =
        match initial with
        | Some s -> Kl.run rng h s
        | None -> Kl.run_random_start rng h
      in
      {
        Engine.Result.solution = r.Kl.solution;
        cut = r.Kl.cut;
        legal = Bipartition.is_legal r.Kl.solution problem.Problem.balance;
        stats =
          [
            ("passes", float_of_int r.Kl.passes);
            ("swaps", float_of_int r.Kl.swaps);
          ];
      })
