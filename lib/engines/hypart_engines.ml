(* every built-in engine, in one list *)
let engines =
  Hypart_fm.Fm_engines.[ flat; clip; reported; reported_clip; lookahead ]
  @ Hypart_multilevel.Ml_engines.[ ml; mlclip; hmetis ]
  @ [
      Hypart_kl.Kl.engine;
      Hypart_sa.Sa_partitioner.engine;
      Hypart_spectral.Spectral.engine;
      Hypart_evolve.Evolve.memetic_ml;
      Hypart_fm.Fm_engines.eco_fm;
      Hypart_multilevel.Ml_engines.eco_ml;
    ]

let registered = lazy (List.iter Hypart_engine.Engine.register engines)
let init () = Lazy.force registered
