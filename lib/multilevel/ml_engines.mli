(** The multilevel partitioner as registry engines: [ml] (ML LIFO FM),
    [mlclip] (ML CLIP FM) and [hmetis] (the Tables 4–5 hMetis-1.5
    stand-in).  A fresh run coarsens and refines from scratch; when
    given an initial solution the engines improve it with one V-cycle
    restricted to its parts. *)

val of_result : Hypart_fm.Fm.result -> Hypart_engine.Engine.Result.t

val ml : Hypart_engine.Engine.t
val mlclip : Hypart_engine.Engine.t

val vcycle_polish :
  ?config:Ml_partitioner.config ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_engine.Engine.Result.t ->
  Hypart_engine.Engine.Result.t
(** One V-cycle on a result, kept only if better — the [polish_best]
    step of the Tables 4–5 protocol (V-cycle the best of N starts). *)

val register : unit -> unit
(** Add [ml], [mlclip] and [hmetis] to the registry (idempotent). *)
