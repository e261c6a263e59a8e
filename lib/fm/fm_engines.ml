module Engine = Hypart_engine.Engine
module Initial = Hypart_partition.Initial

let of_result (r : Fm.result) : Engine.Result.t =
  {
    solution = r.Fm.solution;
    cut = r.Fm.cut;
    legal = r.Fm.legal;
    stats =
      [
        ("passes", float_of_int r.Fm.stats.Fm.passes);
        ("moves", float_of_int r.Fm.stats.Fm.moves);
        ("empty_passes", float_of_int r.Fm.stats.Fm.empty_passes);
        ("corking_events", float_of_int r.Fm.stats.Fm.corking_events);
        ("zero_delta_updates", float_of_int r.Fm.stats.Fm.zero_delta_updates);
      ];
  }

let of_config ~name ~description config =
  Engine.make ~name ~description (fun rng problem initial ->
      let initial =
        match initial with Some s -> s | None -> Initial.random rng problem
      in
      of_result (Fm.run ~config rng problem initial))

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
    (fun rng problem initial ->
      let initial =
        match initial with Some s -> s | None -> Initial.random rng problem
      in
      let r = Lookahead_fm.run rng problem initial in
      {
        Engine.Result.solution = r.Lookahead_fm.solution;
        cut = r.Lookahead_fm.cut;
        legal = r.Lookahead_fm.legal;
        stats =
          [
            ("passes", float_of_int r.Lookahead_fm.passes);
            ("moves", float_of_int r.Lookahead_fm.moves);
          ];
      })
