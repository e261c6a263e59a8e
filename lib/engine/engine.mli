(** The engine layer: one record every bipartitioning heuristic is
    built as ({!make}), a central name registry, and the multistart
    machinery written once over it.

    The paper's methodology demands that heuristics be compared under a
    single controlled harness — same balance convention, same start
    distribution, same timing and reporting.  Engines are registered
    here under their CLI name ([flat], [clip], [ml], [mlclip], ...) by
    [Hypart_engines.init], which lists every built-in engine; tables,
    the CLI, benchmarks and telemetry all dispatch through the
    registry, so a new heuristic is an {!make} call plus one entry in
    that list. *)

module Result : sig
  (** The record every engine returns.  Every family's run function
      builds it itself ([Fm.run], [Kl.run], [Spectral.run], ... return
      it) and defines its engine next to it, so no engine adapts
      another record.  KL and spectral never see the balance: their
      [legal] says whether their split happens to satisfy it. *)

  type t = {
    solution : Hypart_partition.Bipartition.t;
    cut : int;  (** cut of [solution] *)
    legal : bool;  (** whether [solution] satisfies the balance constraint *)
    stats : (string * float) list;
        (** engine-specific counters ([passes], [moves], ...) in a
            telemetry-friendly shape *)
  }

  val better : t -> t -> bool
  (** [better a b]: legality first, then cut — an illegal solution
      never beats a legal one. *)

  val stat : t -> string -> float option
  (** Look up a stats entry by name. *)

  val add_stats :
    (string * float) list -> (string * float) list -> (string * float) list
  (** The stats of two runs of one engine counted as one, as a
      multilevel run counts every FM run it makes: each of the first
      list's entries, in its order, plus the second list's value of the
      same name. *)
end

type t
(** A named heuristic.  [run engine rng problem initial] computes one
    solution; [initial], when given, is a starting solution the engine
    should improve (engines that cannot use one ignore it and engines
    must not mutate it).  [None] means the engine picks its own start
    from [rng]. *)

val name : t -> string
(** Registry/CLI name, e.g. ["mlclip"]. *)

val description : t -> string
(** One line for [hypart engines]. *)

val run :
  t ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_partition.Bipartition.t option ->
  Result.t

val make :
  name:string ->
  description:string ->
  (Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  Hypart_partition.Bipartition.t option ->
  Result.t) ->
  t
(** Package a run function as an engine. *)

(** {1 Registry} *)

val register : t -> unit
(** @raise Invalid_argument on a duplicate or empty name. *)

val find : string -> t option

val find_exn : string -> t
(** @raise Invalid_argument for unknown names, with a message listing
    every registered name. *)

val names : unit -> string list
(** Registered names, sorted. *)

val all : unit -> t list
(** Registered engines, sorted by name. *)

(** {1 Multistart}

    The only multistart entry points: {!multistart}, the shared-stream
    Tables 4–5 protocol, and {!multistart_seeds}, the seeded job
    [(engine, seed, starts)] that [hypart partition], the daemon's
    [/partition] and memetic evaluations all run.  Both keep the first
    result no later start betters ({!Result.better}).  Every per-start
    CPU time comes from {!Machine.cpu_time}, so Tables 4–5
    normalization applies uniformly, and every start is recorded as
    [engine.starts] / [engine.start_cut] / [engine.start_seconds]
    metrics.  Each checks {!Cancel} before every start. *)

type start = { start_cut : int; start_seconds : float }
(** Outcome of one independent start: its final cut and its CPU time. *)

val cpu_seconds : start list -> float
(** The summed CPU seconds of a multistart's starts. *)

val multistart :
  ?polish_best:(Result.t -> Result.t) ->
  t ->
  Hypart_rng.Rng.t ->
  Hypart_partition.Problem.t ->
  starts:int ->
  Result.t * start list
(** [starts] independent self-started runs sharing [rng], keeping the
    first result no later one betters;
    [polish_best] (e.g. [Ml_engines.vcycle_polish], the Tables 4–5
    V-cycle of the best start) is applied once to the winner.
    Per-start records are in execution order, before polishing.
    @raise Invalid_argument when [starts < 1]. *)

val multistart_seeds :
  ?domains:int ->
  t ->
  Hypart_partition.Problem.t ->
  seed:int ->
  starts:int ->
  Result.t * start list
(** [starts] self-started runs, start [i] from a fresh
    [Rng.create (seed + i)], keeping the first result no later start
    betters: a tie goes to the first start.  A start's result does not
    depend on where it runs, so the answer does not depend on the
    domain count or scheduling.  Per-start records are in start order.

    With no [domains] or [domains = 1] the starts run on the calling
    domain; with more they fan out through {!Parallel.map_seeds}.
    Either way they run under the {!Cancel} hook the caller installed.
    @raise Invalid_argument when [starts < 1]. *)
