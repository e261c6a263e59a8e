(** The flat FM family as registry engines: [flat], [clip], [reported],
    [reported-clip] (the four corners of Tables 1–3), [lookahead] and
    the ECO warm engine [eco_fm].
    When given an initial solution the engines refine it; otherwise
    they start from {!Hypart_partition.Initial.random}. *)

val of_config :
  name:string ->
  description:string ->
  Fm_config.t ->
  Hypart_engine.Engine.t
(** An engine running {!Fm.run} under a fixed configuration. *)

val flat : Hypart_engine.Engine.t
val clip : Hypart_engine.Engine.t
val reported : Hypart_engine.Engine.t
val reported_clip : Hypart_engine.Engine.t
val lookahead : Hypart_engine.Engine.t

val eco_fm : Hypart_engine.Engine.t
(** [eco_fm]: [clip] under the ECO path's name — it refines the
    supplied solution, whose locality travels in the problem's [fixed]
    array. *)
