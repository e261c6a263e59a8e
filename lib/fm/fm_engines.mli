(** The flat FM family as registry engines: [flat], [clip], [reported],
    [reported-clip] (the four corners of Tables 1–3) and [lookahead].
    When given an initial solution the engines refine it; otherwise
    they start from {!Hypart_partition.Initial.random}. *)

val of_result : Fm.result -> Hypart_engine.Engine.Result.t
(** Adapt an FM result to the unified result type (stats become the
    [(name, value)] list). *)

(* kept: an engine for any Fm_config.t, how tests run FM variants *)
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

val register : unit -> unit
(** Add the family to the registry (idempotent). *)
