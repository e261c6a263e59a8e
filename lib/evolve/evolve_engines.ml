module Engine = Hypart_engine.Engine
module Rng = Hypart_rng.Rng

let engine_config =
  {
    Evolve.default with
    population = 6;
    generations = 4;
    recombinations = 3;
    immigrants = 1;
  }

let memetic_ml =
  Engine.make ~name:"memetic_ml"
    ~description:
      "memetic multilevel: population search with cut-respecting \
       recombination over mlclip evaluations"
    (fun rng problem initial ->
      (* one non-negative campaign seed drawn from the harness RNG
         keeps the whole campaign a deterministic function of it *)
      let seed = Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2) in
      let o = Evolve.run ?initial engine_config ~seed problem in
      let best = o.Evolve.best in
      {
        Engine.Result.solution = best.Population.solution;
        cut = best.Population.candidate.cut;
        legal = best.Population.candidate.legal;
        stats =
          [
            ("generations", float_of_int (List.length o.Evolve.history - 1));
            ("evaluations", float_of_int o.Evolve.evaluated);
          ];
      })
