(** The memetic campaign driver (ROADMAP item: evolutionary layer in
    the style of "Memetic Multilevel Hypergraph Partitioning").

    A campaign maintains a {!Population} of partitions.  Generation 0
    seeds it with [population] independent base-engine evaluations;
    every later generation produces [recombinations] offspring by
    cut-respecting recombination
    ({!Hypart_multilevel.Ml_partitioner.recombine}) of
    tournament-selected parents plus [immigrants] fresh multistart
    evaluations (mutation pressure), then admits all of them under the
    diversity-aware replacement rule.

    {b Determinism.}  Every candidate is addressed by its
    [(generation, slot)] coordinates; its RNG and evaluation seed are
    derived from the campaign seed and those coordinates
    ({!Hypart_lab.Fingerprint.mix_seed}), parents are selected from
    the population snapshot at generation start, and admission is in
    slot order — so the campaign trajectory is bit-identical for a
    fixed seed at any domain count, executor, or fleet size.

    {b Resume.}  With [store] set, every candidate is appended to the
    {!Pop_log} (and every evaluation to the {!Hypart_lab.Run_store})
    as it completes.  Re-running the same campaign replays logged
    candidates instead of recomputing them, so a truncated store
    resumes with zero wasted evaluations; the log's campaign
    fingerprint guards against resuming someone else's population. *)

type config = {
  base_engine : string;  (** registry name evaluated for seeds/immigrants *)
  population : int;  (** population capacity (and generation-0 size) *)
  generations : int;  (** recombination generations after generation 0 *)
  recombinations : int;  (** offspring per generation *)
  immigrants : int;  (** fresh multistart entrants per generation *)
  starts : int;  (** seeded multistart width per evaluation *)
  tolerance : float;  (** balance tolerance, for fingerprints/records *)
  ml : Hypart_multilevel.Ml_partitioner.config;
      (** recombination refinement configuration *)
  domains : int option;  (** local fan-out for recombinations *)
}

val default : config
(** [mlclip] base, population 12, 8 generations of 6 recombinations +
    2 immigrants, single-start evaluations, tolerance 0.02. *)

type generation = {
  g_index : int;  (** 0 is the seeding generation *)
  g_best_cut : int;  (** population best after admission *)
  g_best_legal : bool;
  g_evaluated : int;  (** candidates computed during this run *)
  g_replayed : int;  (** candidates taken from the population log *)
  g_seconds : float;  (** CPU seconds of this generation's candidates *)
  g_cum_seconds : float;  (** cumulative campaign CPU after this generation *)
}

type outcome = {
  best : Population.member;
  history : generation list;  (** in generation order *)
  evaluated : int;
  replayed : int;
  total_seconds : float;  (** cumulative CPU, replayed candidates included *)
  campaign : string;  (** the campaign fingerprint *)
}

val trajectory : outcome -> string
(** A canonical multi-line rendering of the search trajectory —
    per-generation best cuts and the final solution's cut and
    assignment fingerprint, {e no timings} — byte-identical across
    domain counts, executors and fleet sizes for a fixed seed (the
    determinism witness used by tests and printed by the CLI). *)

val run :
  ?store:string ->
  ?executor:Executor.t ->
  ?initial:Hypart_partition.Bipartition.t ->
  config ->
  seed:int ->
  Hypart_partition.Problem.t ->
  outcome
(** Run (or resume) a campaign.  [executor] defaults to
    {!Executor.in_process}; [initial], when given, is admitted into
    the population before generation 0 (the {!Hypart_engine.Engine.run}
    contract).  @raise Failure when the executor reports an
    unrecoverable evaluation error (e.g. the whole fleet is down).
    @raise Pop_log.Mismatch when [store] holds another campaign's
    population. *)

val memetic_ml : Hypart_engine.Engine.t
(** [memetic_ml]: a compact in-memory {!run} (population 6, 4
    generations of 3 recombinations + 1 immigrant, otherwise {!default})
    seeded from the engine's RNG, as an engine like any other; [initial]
    joins the starting population.  Stats: [generations], [evaluations]. *)
