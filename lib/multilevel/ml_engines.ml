module Engine = Hypart_engine.Engine
module Fm_engines = Hypart_fm.Fm_engines

let of_result = Fm_engines.of_result

let of_config ~name ~description config =
  Engine.make ~name ~description (fun rng problem initial ->
      let r =
        match initial with
        | None -> Ml_partitioner.run ~config rng problem
        | Some s -> Ml_partitioner.vcycle ~config rng problem s
      in
      of_result r)

let ml =
  of_config ~name:"ml"
    ~description:"multilevel LIFO FM (edge coarsening + FM refinement)"
    Ml_partitioner.ml_lifo

let mlclip =
  of_config ~name:"mlclip"
    ~description:"multilevel CLIP FM (edge coarsening + CLIP refinement)"
    Ml_partitioner.ml_clip

let vcycle_polish ?(config = Ml_partitioner.ml_clip) rng problem
    (r : Engine.Result.t) =
  let r' =
    of_result
      (Ml_partitioner.vcycle ~config rng problem r.Engine.Result.solution)
  in
  if Engine.Result.better r' r then r' else r

let hmetis =
  Engine.with_vcycles ~name:"hmetis"
    ~description:
      "hMetis-1.5 stand-in: ML CLIP with internal V-cycles, plus one more on \
       the result (Tables 4-5)"
    ~rounds:1
    ~vcycle:(vcycle_polish ~config:Ml_partitioner.hmetis_like)
    (of_config ~name:"hmetis-base" ~description:"internal hmetis base"
       Ml_partitioner.hmetis_like)

let registered = lazy (List.iter Engine.register [ ml; mlclip; hmetis ])
let register () = Lazy.force registered
