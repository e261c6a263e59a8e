(* every built-in engine, in one list *)
let engines =
  Hypart_fm.Fm_engines.[ flat; clip; reported; reported_clip; lookahead ]
  @ Hypart_multilevel.Ml_engines.[ ml; mlclip; hmetis ]
  @ [
      Hypart_kl.Kl_engines.kl;
      Hypart_sa.Sa_engines.sa;
      Hypart_spectral.Spectral_engines.spectral;
      Hypart_evolve.Evolve_engines.memetic_ml;
      Hypart_delta.Eco_engines.eco_fm;
      Hypart_delta.Eco_engines.eco_ml;
    ]

let registered = lazy (List.iter Hypart_engine.Engine.register engines)
let init () = Lazy.force registered
