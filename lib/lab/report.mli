(** Report generation decoupled from execution: every table is rebuilt
    purely from the run store plus the manifest (which re-derives every
    cache key), never from in-process results.

    The views cover the paper's layouts: {!min_avg} (Tables 1–3: min
    and average cut of single starts), {!cut_cpu_table} (Tables 4–5:
    average best cut and average CPU seconds of multistart
    repetitions), {!compare} (§3.2: spread, a bootstrap interval of the
    mean and, for two engines, a Welch-t / Mann-Whitney verdict) and
    the §3.2 figures {!bsf_table}, {!ranking_table} and {!pareto},
    built from the per-run (CPU seconds, cut) records of single-start
    cells.

    Every CPU figure is a stored run's seconds times the normalization
    factor stored with that run.  Cut-only views are deterministic —
    interval bootstraps re-sample from a seed derived from the campaign
    seed — so an interrupted-then-resumed campaign renders a
    byte-identical report to an uninterrupted one.  CPU timings are
    measurements, not functions of the seed; the tables only show them
    with [~timing:true], and the figures, which plot them, are
    byte-identical only when rendered from the same stored runs.  A
    cell whose runs are not all stored shows a ["(k/N)"] marker, one
    holding an illegal run a ["†"]. *)

type t
(** A store read through one manifest. *)

val create : ?instance_fps:((string * float) * string) list -> Run_store.t -> Manifest.t -> t
(** [instance_fps] are known fingerprints of (instance, scale) pairs,
    such as {!Orchestrator.outcome}'s; any other instance the report
    needs is generated once to fingerprint it. *)

val min_avg : t -> Manifest.experiment -> Hypart_engine.Engine.t -> instance:string -> string
(** The paper's ["min/avg"] cut of a single-start cell. *)

val cpu : t -> Manifest.experiment -> Hypart_engine.Engine.t -> instance:string -> string
(** The average normalized CPU seconds per run of a single-start cell. *)

val runs : t -> Manifest.experiment -> Hypart_engine.Engine.t -> instance:string -> Run_store.record list
(** The stored runs of a single-start cell, in run order: their cuts,
    CPU seconds and engine stats, for views the accessors above do not
    cover. *)

val cut_cpu_table : ?timing:bool -> t -> Manifest.experiment -> Table.t
(** Tables 4–5: one row per instance (per engine and instance when the
    experiment has several engines), one column per multistart
    protocol; cells are ["avg cut/avg CPU s"], or the average cut alone
    without [timing]. *)

val compare :
  ?timing:bool -> t -> Manifest.experiment -> instance:string -> Table.t * string option
(** One row per engine: runs, min/avg, standard deviation, 95%
    bootstrap interval of the mean (and normalized CPU seconds per run
    with [timing]).  With exactly two engines whose cells are complete
    and hold at least two runs, also the verdict line: which engine is
    significantly better at the 5% level, or that neither is. *)

(** {1 §3.2 figures}

    Views over a single-start experiment whose cells hold one record
    per independent start.  [label] names an engine's column or point
    (e.g. ["Flat LIFO FM"]); cells with no stored run are left out. *)

val bsf_table :
  label:(Hypart_engine.Engine.t -> string) ->
  ?budgets:float array ->
  t ->
  Manifest.experiment ->
  instance:string ->
  Table.t
(** Expected best-so-far cut per CPU budget (rows; default 0.1–10 s),
    one column per engine: {!Hypart_stats.Bsf.expected_curve} over the
    cell's records, resampled from a seed derived from the campaign
    seed, the engine and the instance.  ["-"] where no resampled
    sequence finishes a start within the budget. *)

val ranking_table :
  label:(Hypart_engine.Engine.t -> string) ->
  ?budgets:float array ->
  t ->
  Manifest.experiment ->
  Table.t
(** The speed-dependent ranking diagram: per instance (rows) and
    budget (columns), the engine whose {!bsf_table} curve is lowest;
    ["-"] where no curve reaches the budget. *)

val pareto :
  label:(Hypart_engine.Engine.t -> string) ->
  t ->
  Manifest.experiment ->
  instance:string ->
  Table.t * (string * float * float) list
(** One (cost, runtime) point per engine and best-of-k configuration,
    k ∈ {1, 4, 16}: the exact expected best of k starts drawn from the
    cell's cuts ({!Hypart_stats.Bsf.expected_best}) against k times the
    mean CPU seconds per start.  The table marks the non-dominated
    frontier with ["*"]; the frontier is also returned as
    [(label, cost, seconds)] in increasing runtime. *)

val generate : ?timing:bool -> t -> string
(** The generic layout of the whole campaign, as Markdown: a coverage
    line, then per experiment, for its single-start cells a {!min_avg}
    table (a row per engine, a column per instance) and one {!compare}
    table per instance, and for its multistart cells the
    {!cut_cpu_table}. *)
