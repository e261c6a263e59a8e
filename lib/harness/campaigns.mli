(** The paper's Tables 1–5, the head-to-head comparison, the §3.2
    figures and the ablation as lab experiments, and the built-in
    campaigns that bundle them.

    Every table and figure is one path: a {!Hypart_lab.Manifest}
    experiment, executed by {!Hypart_lab.Orchestrator.run} (per-cell
    derived seeds, sharded over domains, served from the run store when
    already recorded) and rendered from the store by
    {!Hypart_lab.Report}.  So [hypart table1] and [hypart lab run
    --campaign tables] are the same runs, and a store written by either
    serves the other. *)

module Manifest = Hypart_lab.Manifest
module Report = Hypart_lab.Report
module Table = Hypart_lab.Table

(** {1 Experiments} *)

val table1 :
  ?tolerance:float -> scale:float -> runs:int -> instances:string list -> unit -> Manifest.experiment
(** Table 1: the 24 variants {All∆gain, Nonzero} updates × {Away,
    Part0, Toward} bias × {flat LIFO, flat CLIP, ML LIFO, ML CLIP},
    single starts with actual areas at [tolerance] (default 2%).  The
    variants are built from their FM configurations and are not
    registry engines; their names read like ["mlclip:nonzero:away"]. *)

val table23 :
  [ `Lifo | `Clip ] -> scale:float -> runs:int -> instances:string list -> Manifest.experiment list
(** Table 2 ([`Lifo]) or Table 3 ([`Clip]): the weak "reported"
    engine against ours, at 2% and 10% tolerance. *)

val default_configs : int list
(** Tables 4–5's starts per configuration: [[1; 2; 4; 8; 16; 100]]. *)

val tables45 :
  scale:float ->
  repeats:int ->
  configs:int list ->
  instances:string list ->
  tolerance:float ->
  Manifest.experiment
(** Table 4 (2%) or 5 (10%): [repeats] repetitions per (instance,
    starts) of the multistart protocol on [mlclip] — the starts, then
    a V-cycle of the best. *)

val compare :
  ?tolerance:float ->
  scale:float ->
  runs:int ->
  engine_a:string ->
  engine_b:string ->
  instance:string ->
  unit ->
  Manifest.experiment
(** Two registry engines, [runs] single starts each, at [tolerance]
    (default 2%).
    @raise Invalid_argument on an unknown engine name, listing the
    registered ones. *)

val figures : scale:float -> starts:int -> instances:string list -> Manifest.experiment
(** The §3.2 figures' runs: [starts] single starts of [flat], [clip],
    [ml] and [mlclip] per instance at 2%.  The BSF curves, the Pareto
    points and the ranking diagram are all views over these cells
    ({!Hypart_lab.Report.bsf_table}, {!Hypart_lab.Report.pareto},
    {!Hypart_lab.Report.ranking_table}), and a run's seed depends on
    neither [starts] nor the other instances, so the three share their
    stored runs. *)

val figure_label : Hypart_engine.Engine.t -> string
(** The paper's name of a {!figures} engine (["Flat LIFO FM"] for
    [flat], ...).  @raise Not_found for any other engine. *)

val ablation : scale:float -> runs:int -> instance:string -> Manifest.experiment
(** One row per setting of each design dimension DESIGN.md §5 calls
    out — bucket insertion order, illegal-head policy, oversized-cell
    exclusion, pass-best tie-break, initial-solution generator,
    coarsening scheme, LIFO and CLIP boundary refinement — [runs]
    single starts each at 2%, every other knob at its strong default.
    A setting equal to a registered engine ([flat], [clip], [ml],
    [mlclip]) runs as that engine, so rows sharing a baseline share its
    runs; the others are named like ["ablation:insertion=fifo"]. *)

val ablation_table : Report.t -> Manifest.experiment -> Table.t
(** The {!ablation} layout: dimension, setting, min/avg cut and CPU
    seconds per run. *)

(** {1 Built-in campaigns} *)

val names : string list
(** ["smoke"; "tables"; "multistart"; "figures"; "ablation"; "engines";
    "corking"; "memetic"]. *)

val campaign : ?scale:float -> ?runs:int -> seed:int -> string -> Manifest.t
(** [campaign ~seed name] at [scale] (default 8.0) with [runs] per
    cell (default 20):
    - ["smoke"]: one engine, one instance — CI and tests;
    - ["tables"]: Tables 1–3 on the small instances;
    - ["multistart"]: Tables 4–5 on the evaluation suite, [runs]
      repetitions of each default configuration;
    - ["figures"]: the §3.2 figures' runs on the small instances,
      [runs] starts per engine;
    - ["ablation"]: [hypart ablation]'s experiment on ibm01;
    - ["engines"]: every registered engine family on ibm01;
    - ["corking"]: CLIP with and without the corking fix;
    - ["memetic"]: the memetic campaign engine against its plain
      multilevel baseline on the small instances.
    @raise Invalid_argument for unknown names, listing the known
    campaigns. *)

(** {1 Execution and rendering} *)

val execute :
  ?domains:int -> store:string option -> Manifest.t -> Report.t * Hypart_lab.Orchestrator.outcome
(** Run a manifest against the run store under [store] (created if
    absent; an in-memory store when [None]) and return the report view
    over it, with the orchestrator's outcome. *)

val table1_table : Report.t -> Manifest.experiment -> Table.t
(** Table 1's layout of a {!table1} experiment: a block per engine
    family, a row per (updates, bias), min/avg cuts per instance. *)

val table23_table : Report.t -> Manifest.experiment list -> Table.t
(** Table 2's or 3's layout of the {!table23} experiments. *)
