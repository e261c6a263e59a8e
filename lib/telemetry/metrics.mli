(** Metrics registry: named counters, gauges and value histograms with
    domain-safe updates and JSON/CSV/Prometheus snapshot export.

    Metric names are flat dotted strings ([fm.moves],
    [engine.start_seconds]); the first use of a name fixes its kind and a
    later use under a different kind raises [Invalid_argument].
    Recording calls ({!incr}, {!set_gauge}, {!observe}) are no-ops
    while telemetry is disabled (see {!Control}), so instrumentation
    left in hot paths costs one atomic load.  Reads and exports work
    regardless of the switch. *)

type stats = {
  count : int;  (** exact observation count (not capped) *)
  sum : float;  (** exact running sum *)
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type entry =
  | E_counter of string * int
  | E_gauge of string * float
  | E_histogram of string * stats

(* kept: the retention bound the reservoir tests fill past *)
val reservoir_cap : int
(** Maximum retained samples per histogram (4096).  Below the cap
    quantiles are exact; above it a per-histogram seeded reservoir
    (algorithm R) keeps a uniform sample, and count/sum/min/max/mean
    remain exact running aggregates.  Bounds a long-lived daemon's
    memory per histogram. *)

val incr : ?by:int -> string -> unit
(** Atomically add [by] (default 1) to a counter. *)

val set_gauge : string -> float -> unit
(** Set a gauge to its latest value. *)

val observe : string -> float -> unit
(** Append a sample to a histogram (retention capped at
    {!reservoir_cap}; see above). *)

val register_probe : string -> (unit -> float) -> unit
(** Register a derived gauge evaluated at snapshot time.  Probes let
    other modules publish self-metrics ([telemetry.unbalanced_spans],
    [telemetry.events_dropped]) without storing state in the registry;
    they survive {!reset}.  A probe that raises is skipped; a probe
    shadowed by a registered metric of the same name is skipped. *)

val counter_value : string -> int
(** Current counter value; [0] for unknown names. *)

val gauge_value : string -> float
(** Current gauge value; [0.] for unknown names. *)

(* kept: one histogram's summary, as the metric tests read it *)
val histogram_stats : string -> stats option

(* kept: the reservoir fill the cap tests check *)
val histogram_retained : string -> int
(** Number of samples currently retained in the reservoir ([<=]
    {!reservoir_cap}); [0] for unknown names. *)

val quantile : string -> float -> float option
(** Nearest-rank quantile, [q] clamped to [0,1].  [None] when the
    histogram is unknown or empty. *)

val snapshot : unit -> entry list
(** All metrics (including probe gauges), sorted by name. *)

val to_json : ?provenance:(string * string) list -> unit -> string
(** JSON snapshot.  [provenance] (e.g. a git-describe stamp and machine
    factor) is emitted as a top-level ["provenance"] string object when
    non-empty, so snapshots carry the DAC'99 reporting context with the
    numbers. *)

val to_csv : unit -> string

(* kept: the exposition name rule, tested directly *)
val prometheus_name : string -> string
(** Sanitise a metric name for Prometheus: every character outside
    [[a-zA-Z0-9_:]] becomes [_], and a leading digit is prefixed with
    [_].  [fm.pass_cut] becomes [fm_pass_cut]. *)

val to_prometheus : unit -> string
(** Prometheus text exposition format 0.0.4.  Counters gain a [_total]
    suffix; histograms render as summaries (quantile samples plus
    [_sum]/[_count]). *)

val write : ?provenance:(string * string) list -> string -> unit
(** Write the snapshot to a file: CSV when the path ends in [.csv],
    Prometheus text when it ends in [.prom], JSON (with the optional
    [provenance] object) otherwise. *)

val reset : unit -> unit
(** Drop every registered metric (tests).  Probes survive. *)
