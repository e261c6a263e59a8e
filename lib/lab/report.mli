(** Report generation decoupled from execution: every table is rebuilt
    purely from the run store plus the manifest (which re-derives every
    cache key), never from in-process results.

    Three views cover the paper's layouts: {!min_avg} (Tables 1–3: min
    and average cut of single starts), {!cut_cpu} (Tables 4–5: average
    best cut and average CPU seconds of multistart repetitions) and
    {!compare} (§3.2: spread, a bootstrap interval of the mean and, for
    two engines, a Welch-t / Mann-Whitney verdict).

    Cut-only views are deterministic — interval bootstraps re-sample
    from a seed derived from the campaign seed — so an
    interrupted-then-resumed campaign renders a byte-identical report
    to an uninterrupted one.  CPU timings are measurements, not
    functions of the seed; they only appear with [~timing:true], which
    forfeits byte-reproducibility across machines and re-runs.  A cell
    whose runs are not all stored shows a ["(k/N)"] marker, one
    holding an illegal run a ["†"]. *)

type t
(** A store read through one manifest. *)

val create : ?instance_fps:((string * float) * string) list -> Run_store.t -> Manifest.t -> t
(** [instance_fps] are known fingerprints of (instance, scale) pairs,
    such as {!Orchestrator.outcome}'s; any other instance the report
    needs is generated once to fingerprint it. *)

val min_avg : t -> Manifest.experiment -> Hypart_engine.Engine.t -> instance:string -> string
(** The paper's ["min/avg"] cut of a single-start cell. *)

val cut_cpu_table : ?timing:bool -> t -> Manifest.experiment -> Table.t
(** Tables 4–5: one row per instance (per engine and instance when the
    experiment has several engines), one column per multistart
    protocol; cells are ["avg cut/avg CPU s"] with CPU normalized by
    {!Hypart_engine.Machine.normalize}, or the average cut alone
    without [timing]. *)

val compare :
  ?timing:bool -> t -> Manifest.experiment -> instance:string -> Table.t * string option
(** One row per engine: runs, min/avg, standard deviation, 95%
    bootstrap interval of the mean (and normalized CPU seconds per run
    with [timing]).  With exactly two engines whose cells are complete
    and hold at least two runs, also the verdict line: which engine is
    significantly better at the 5% level, or that neither is. *)

val generate : ?timing:bool -> store:Run_store.t -> manifest:Manifest.t -> unit -> string
(** Markdown: a coverage line, then per experiment, for its
    single-start cells a {!min_avg} table (a row per engine, a column
    per instance) and one {!compare} table per instance, and for its
    multistart cells the {!cut_cpu_table}. *)
