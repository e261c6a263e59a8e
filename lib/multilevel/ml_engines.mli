(** The multilevel partitioner as engines: [ml] (ML LIFO FM),
    [mlclip] (ML CLIP FM), [hmetis] (an hMetis-1.5-like
    configuration: {!Ml_partitioner.hmetis_like} followed by one
    {!vcycle_polish} under the same configuration) and the ECO warm
    engine [eco_ml].  The Tables 4–5 protocol is not [hmetis]: it
    runs [mlclip] starts plus one V-cycle of the best
    ({!Hypart_engine.Engine.multistart} with
    [~polish_best:vcycle_polish]).  A fresh run coarsens and refines
    from scratch; when given an initial solution the engines improve
    it with one V-cycle restricted to its parts. *)

val of_config :
  name:string ->
  description:string ->
  Ml_partitioner.config ->
  Hypart_engine.Engine.t
(** An engine running {!Ml_partitioner.run} (or, given an initial
    solution, one {!Ml_partitioner.vcycle} from it) under a fixed
    configuration — the multilevel side of [Fm_engines.of_config]. *)

val ml : Hypart_engine.Engine.t
val mlclip : Hypart_engine.Engine.t
val hmetis : Hypart_engine.Engine.t

val eco_ml : Hypart_engine.Engine.t
(** [eco_ml]: [mlclip] under the ECO path's name — one V-cycle of the
    supplied solution (never worse, costlier than [eco_fm]). *)

val vcycle_polish :
  ?config:Ml_partitioner.config ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_engine.Engine.Result.t ->
  Hypart_engine.Engine.Result.t
(** One V-cycle on a result, kept only if better — the [polish_best]
    step of the Tables 4–5 protocol (V-cycle the best of N starts). *)
