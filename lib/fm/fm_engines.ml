module Engine = Hypart_engine.Engine
module Initial = Hypart_partition.Initial

(* refine the given solution, or a random start when there is none *)
let from_start refine rng problem initial =
  let initial =
    match initial with Some s -> s | None -> Initial.random rng problem
  in
  refine rng problem initial

let of_config ~name ~description config =
  Engine.make ~name ~description (from_start (Fm.run ~config))

let flat =
  of_config ~name:"flat"
    ~description:"flat FM, strong LIFO configuration (Table 1's \"our LIFO\")"
    Fm_config.strong_lifo

let clip =
  of_config ~name:"clip"
    ~description:"flat CLIP FM, strong configuration (Table 1's \"our CLIP\")"
    Fm_config.strong_clip

let reported =
  of_config ~name:"reported"
    ~description:"flat FM as commonly reported: FIFO, no corking fix (Table 2)"
    Fm_config.reported_lifo

let reported_clip =
  of_config ~name:"reported-clip"
    ~description:"flat CLIP FM as commonly reported (Table 3)"
    Fm_config.reported_clip

let lookahead =
  Engine.make ~name:"lookahead"
    ~description:"flat FM with Krishnamurthy look-ahead gain vectors"
    (from_start Lookahead_fm.run)

let eco_fm =
  of_config ~name:"eco_fm"
    ~description:
      "warm-start CLIP FM: refine a supplied initial solution (ECO \
       boundary refinement; random start when none is given)"
    Fm_config.strong_clip
