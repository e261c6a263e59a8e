(** The one catalog of lab campaigns: the paper's Tables 1–5, the
    head-to-head comparison, the §3.2 figures, the ablation, the
    corking diagnostic, the §2.1 fixed-terminal and runtime-regime
    studies, the ECO chain and the built-in campaigns that bundle them.

    A campaign is what it runs against an opened
    {!Hypart_lab.Run_store} plus its view: how it renders from that
    store.  A grid campaign is a {!Hypart_lab.Manifest} executed by
    {!Hypart_lab.Orchestrator.run} (per-cell derived seeds, sharded
    over domains, served from the store when already recorded) and
    rendered from the store by {!Hypart_lab.Report}.  So [hypart
    corking] and [hypart lab run --campaign corking] are the same runs,
    a store written by either serves the other, and [hypart lab report
    --campaign corking] prints what [hypart corking] printed. *)

module Manifest = Hypart_lab.Manifest
module Report = Hypart_lab.Report
module Run_store = Hypart_lab.Run_store
module Table = Hypart_lab.Table

(** {1 Views} *)

type section =
  | Tabular of { slug : string; title : string; table : Table.t; notes : string }
      (** a table with the text printed after it; [slug] names its
          files under [hypart all --out] *)
  | Markdown of string  (** a report laid out as a whole *)

val render : ?csv:bool -> section list -> string
(** One section alone, or each under a ["=== title ==="] heading.
    Tables are aligned text, or CSV with [csv]. *)

(** {1 Parts}

    A part is a set of experiments and the sections that render them;
    {!make} bundles parts into a campaign. *)

type part

val experiments : part -> Manifest.experiment list
(** A part's experiments, as a bare {!Manifest.make} takes them. *)

val table1 : scale:float -> runs:int -> instances:string list -> part
(** Table 1: the 24 variants {All∆gain, Nonzero} updates × {Away,
    Part0, Toward} bias × {flat LIFO, flat CLIP, ML LIFO, ML CLIP},
    single starts with actual areas at 2%; a block per engine family, a
    row per (updates, bias), min/avg cuts per instance.  The variants
    are built from their FM configurations and are not registry
    engines; their names read like ["mlclip:nonzero:away"]. *)

val table23 : [ `Lifo | `Clip ] -> scale:float -> runs:int -> instances:string list -> part
(** Table 2 ([`Lifo]) or Table 3 ([`Clip]): the weak "reported"
    engine against ours, at 2% and 10% tolerance. *)

val default_configs : int list
(** Tables 4–5's starts per configuration: [[1; 2; 4; 8; 16; 100]]. *)

val tables45 :
  scale:float -> repeats:int -> configs:int list -> instances:string list -> tolerance:float -> part
(** Table 4 (2%) or 5 (10%): [repeats] repetitions per (instance,
    starts) of the multistart protocol on [mlclip] — the starts, then
    a V-cycle of the best — shown as average cut / average CPU
    seconds. *)

val compare :
  scale:float -> runs:int -> engine_a:string -> engine_b:string -> instance:string -> part
(** Two registry engines, [runs] single starts each at 2%: spread,
    bootstrap interval, CPU seconds and the significance verdict.
    @raise Invalid_argument on an unknown engine name, listing the
    registered ones. *)

val figures :
  scale:float ->
  starts:int ->
  instances:string list ->
  [ `Bsf of string | `Pareto of string | `Ranking ] list ->
  part
(** The §3.2 figures: [starts] single starts of [flat], [clip], [ml]
    and [mlclip] per instance at 2%, shown as the listed views — the
    BSF curves or the Pareto points (with their non-dominated frontier)
    of one instance, or the ranking diagram.  A run's seed depends on
    neither [starts] nor the other instances, so the views share their
    stored runs. *)

val ablation : scale:float -> runs:int -> instance:string -> part
(** One row per setting of each design dimension DESIGN.md §5 calls
    out — bucket insertion order, illegal-head policy, oversized-cell
    exclusion, pass-best tie-break, initial-solution generator,
    coarsening scheme, LIFO and CLIP boundary refinement — [runs]
    single starts each at 2%, every other knob at its strong default:
    min/avg cut and CPU seconds per run.  A setting equal to a
    registered engine ([flat], [clip], [ml], [mlclip]) runs as that
    engine, so rows sharing a baseline share its runs; the others are
    named like ["ablation:insertion=fifo"]. *)

val corking : scale:float -> runs:int -> instance:string -> part
(** The §2.3 corking diagnostic: [reported-clip] (no corking fix) and
    [clip] (with it), [runs] single starts each at 2%: min/avg cut,
    moves per pass and empty passes per run, the last two from the
    stored engine stats (["-"] for runs stored without them). *)

val fixed : scale:float -> runs:int -> instance:string -> part
(** The §2.1 observation that "the presence of fixed terminals
    fundamentally changes the nature of the partitioning problem":
    [runs] single starts at 10% of [flat] with 0, 2, 10, 25 and 50% of
    the vertices fixed, each fraction an engine named like ["fixed:10"]
    that fixes the same vertex set (sampled from a constant seed,
    alternating sides as terminal propagation produces them) in every
    run.  Shown per fraction: min/avg cut, cut standard deviation
    (["-"] without runs), average passes and CPU seconds per run. *)

val regime : big:bool -> part
(** The §2.1 use-model budget check: commercial top-down placement
    spends "approximately 1 CPU minute per 6000 cells", implying
    partitioning budgets of ~5 CPU seconds at 25,000 cells.  One [ml]
    single start on each of ibm01, ibm05, ibm10, ibm14 and ibm18 at
    their published sizes; with [big], also ibm18 at scale 0.28, a
    ~750,000-cell instance.  Shown: cells, cut, CPU seconds, the
    implied budget (cells/5000 s) and whether the run fits it; a run
    not stored yet reads ["pending"]. *)

(** {1 Campaigns} *)

type t

val make : name:string -> seed:int -> part list -> t
(** The grid campaign of the parts' experiments under [seed], viewed
    as their sections in order. *)

val names : string list
(** The catalog: ["smoke"; "tables"; "multistart"; "figures";
    "ablation"; "engines"; "corking"; "fixed"; "regime"; "memetic";
    "eco"; "all"]. *)

val campaign : ?scale:float -> ?runs:int -> seed:int -> string -> t
(** [campaign ~seed name] at [scale] (default 8.0) with [runs] per
    cell (default 20):
    - ["smoke"]: one engine, one instance — CI and tests;
    - ["tables"]: Tables 1–3 on the small instances;
    - ["multistart"]: Tables 4–5 on the evaluation suite, [runs]
      repetitions of each default configuration;
    - ["figures"]: the §3.2 figures' runs on the small instances,
      [runs] starts per engine: BSF and Pareto on ibm03, the ranking;
    - ["ablation"], ["corking"], ["fixed"]: the study on ibm01;
    - ["regime"]: the study at the published sizes ([scale] and [runs]
      do not apply);
    - ["engines"]: every registered engine family on ibm01;
    - ["memetic"]: the memetic campaign engine against its plain
      multilevel baseline on the small instances;
    - ["eco"]: the {!Hypart_delta.Eco_lab} chain, [runs] steps;
    - ["all"]: every paper table and figure, [hypart all]'s sections.
    ["smoke"] renders {!Hypart_lab.Report.generate}'s generic layout
    without CPU seconds, ["engines"] and ["memetic"] with them; every
    other campaign renders its own tables.
    @raise Invalid_argument for unknown names, listing the known
    campaigns. *)

val name : t -> string

val run : ?domains:int -> t -> Run_store.t -> Hypart_lab.Orchestrator.outcome
(** Run every cell the store does not hold yet, over [domains] for a
    grid. *)

val view : ?instance_fps:((string * float) * string) list -> t -> Run_store.t -> section list
(** Render from the store alone; [instance_fps] (a {!run}'s) spares
    regenerating instances to fingerprint them. *)

val execute :
  ?domains:int -> store:string option -> t -> Hypart_lab.Orchestrator.outcome * section list
(** {!run} then {!view} against the run store under [store] (created
    if absent; an in-memory store when [None]). *)
