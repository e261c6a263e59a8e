let eco_fm =
  Hypart_fm.Fm_engines.of_config ~name:"eco_fm"
    ~description:
      "warm-start CLIP FM: refine a supplied initial solution (ECO \
       boundary refinement; random start when none is given)"
    Hypart_fm.Fm_config.strong_clip

let eco_ml =
  Hypart_multilevel.Ml_engines.of_config ~name:"eco_ml"
    ~description:
      "warm-start ML CLIP: V-cycle a supplied initial solution (never \
       worse; a full multilevel run when none is given)"
    Hypart_multilevel.Ml_partitioner.ml_clip
