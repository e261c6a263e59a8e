module Engine = Hypart_engine.Engine

(* a fresh multilevel run, or one V-cycle from [initial] *)
let run_config config rng problem = function
  | None -> Ml_partitioner.run ~config rng problem
  | Some s -> Ml_partitioner.vcycle ~config rng problem s

let of_config ~name ~description config =
  Engine.make ~name ~description (run_config config)

let ml =
  of_config ~name:"ml"
    ~description:"multilevel LIFO FM (edge coarsening + FM refinement)"
    Ml_partitioner.ml_lifo

let mlclip =
  of_config ~name:"mlclip"
    ~description:"multilevel CLIP FM (edge coarsening + CLIP refinement)"
    Ml_partitioner.ml_clip

let eco_ml =
  of_config ~name:"eco_ml"
    ~description:
      "warm-start ML CLIP: V-cycle a supplied initial solution (never \
       worse; a full multilevel run when none is given)"
    Ml_partitioner.ml_clip

let vcycle_polish ?(config = Ml_partitioner.ml_clip) rng problem
    (r : Engine.Result.t) =
  let r' = Ml_partitioner.vcycle ~config rng problem r.Engine.Result.solution in
  if Engine.Result.better r' r then r' else r

let hmetis =
  let config = Ml_partitioner.hmetis_like in
  Engine.make ~name:"hmetis"
    ~description:
      "hMetis-1.5-like ML CLIP: 2 internal V-cycles, plus one more on the \
       result (Tables 4-5 instead V-cycle the best of N mlclip starts)"
    (fun rng problem initial ->
      vcycle_polish ~config rng problem (run_config config rng problem initial))
