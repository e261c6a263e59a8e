(** The paper's experiments as reusable protocols.

    Each function regenerates one table or figure of the paper on the
    synthetic ISPD98 twins.  [scale] divides instance sizes (1.0 = the
    published sizes), [runs]/[repeats] control the trial counts; the
    defaults are sized so a full regeneration finishes in minutes on a
    laptop, and the [bin/] runners expose flags for paper-faithful
    settings (scale 1.0, 100 runs).  All protocols are deterministic
    given [seed]. *)

type fm_variant = Flat_lifo | Flat_clip | Ml_lifo | Ml_clip

(** {1 Table 1} — implicit-decision matrix *)

val table1 :
  ?scale:float ->
  ?runs:int ->
  ?tolerance:float ->
  ?instances:string list ->
  seed:int ->
  unit ->
  Table.t
(** Min/average cuts over [runs] independent single starts for each of
    the four engines × {All∆gain, Nonzero} × {Away, Part0, Toward},
    with actual areas, at [tolerance] (default 2%). *)

(** {1 Tables 2 and 3} — strong vs. "reported" implementations *)

val table_reported_vs_ours :
  engine:[ `Lifo | `Clip ] ->
  ?scale:float ->
  ?runs:int ->
  ?instances:string list ->
  seed:int ->
  unit ->
  Table.t
(** [engine:`Lifo] regenerates Table 2; [`Clip] Table 3.  Rows pair the
    weak "Reported" preset with the strong "Our" preset at 2% and 10%
    tolerance; cells are min/average over [runs] single starts. *)

(** {1 Tables 4 and 5} — multistart evaluation of the multilevel engine *)

val table_multistart_eval :
  ?scale:float ->
  ?repeats:int ->
  ?configs:int list ->
  ?instances:string list ->
  ?store:string ->
  tolerance:float ->
  seed:int ->
  unit ->
  Table.t
(** For each instance and each configuration (number of starts,
    default [1; 2; 4; 8; 16; 100]), run the protocol [repeats] times:
    N independent multilevel starts, V-cycle the best; report
    (average best cut / average CPU seconds), CPU time normalized by
    {!Machine.normalize}.

    [store] persists every repetition in the lib/lab run store under
    that directory and serves already-stored repetitions from it, so an
    interrupted regeneration resumes where it stopped and an unchanged
    one performs zero engine runs.  Store-backed repetitions derive one
    seed per (instance, starts, repeat) cell instead of sharing one RNG
    stream, so the numbers differ from the storeless protocol but are
    deterministic and independent of which repetitions were cached
    (see [docs/EXPERIMENTS_STORE.md]). *)

(** {1 §3.2 figures} *)

val bsf_figure :
  ?scale:float ->
  ?starts:int ->
  ?tolerance:float ->
  ?budgets:float array ->
  instance:string ->
  seed:int ->
  unit ->
  Table.t
(** Expected best-so-far cut vs CPU budget for flat LIFO, flat CLIP and
    the multilevel engine (Monte-Carlo resampling of per-start
    records). *)

val pareto_figure :
  ?scale:float ->
  ?repeats:int ->
  ?tolerance:float ->
  instance:string ->
  seed:int ->
  unit ->
  Table.t * (string * float * float) list
(** (cost, runtime) performance points for every engine × starts
    configuration, with the non-dominated frontier marked; also returns
    the frontier as data. *)

val ranking_figure :
  ?scale:float ->
  ?starts:int ->
  ?tolerance:float ->
  ?budgets:float array ->
  ?instances:string list ->
  seed:int ->
  unit ->
  Table.t
(** Speed-dependent ranking diagram: for each instance (rows) and CPU
    budget (columns), the heuristic with the best expected BSF value. *)

(** {1 Head-to-head comparison (§3.2, Brglez)} *)

val compare_engines :
  ?scale:float ->
  ?runs:int ->
  ?tolerance:float ->
  ?store:string ->
  engine_a:string ->
  engine_b:string ->
  instance:string ->
  seed:int ->
  unit ->
  Table.t * string
(** [compare_engines ~engine_a ~engine_b ~instance] runs both engines
    ([runs] single starts each; any name from the
    {!Hypart_engine.Engine} registry — see [hypart engines]) and
    reports min/avg/stddev, mean CPU, a bootstrap 95% CI of the mean
    cut, Welch-t and Mann-Whitney p-values, and a one-line verdict —
    the "is the improvement due to the heuristic or due to chance"
    check Brglez asked of the field.

    [store] caches every single run in the lib/lab run store under that
    directory: repeating an identical comparison performs zero engine
    runs, and the per-run records (seed, cut, CPU, git stamp) remain
    available to [hypart lab report].  Store-backed sampling derives
    one seed per run instead of sharing one RNG stream — deterministic,
    but numerically distinct from the storeless protocol.
    @raise Invalid_argument on unknown engine names, listing the
    registered ones. *)

(** {1 Placement quality (§2.1)} *)

val placement_table :
  ?scale:float ->
  ?runs:int ->
  instance:string ->
  seed:int ->
  unit ->
  Table.t
(** The use-model consequence of partitioner quality: run the top-down
    placer with each partitioning engine (weak "Reported" FM, strong
    flat FM, multilevel) plus a random-placement floor, and report
    half-perimeter wirelength and CPU time.  A worse partitioner
    directly becomes a worse placement — the reason the paper insists
    partitioners be evaluated inside their driving application. *)

(** {1 Runtime regimes (§2.1)} *)

val runtime_regime_table :
  ?include_750k:bool ->
  ?tolerance:float ->
  seed:int ->
  unit ->
  Table.t
(** The §2.1 use-model budget check: commercial top-down placement
    spends "approximately 1 CPU minute per 6000 cells", implying
    partitioning budgets of ~5 CPU seconds at 25,000 cells and under a
    minute at 750,000.  One multilevel start per instance across the
    full published size range (ibm01..ibm18 at scale 1; with
    [include_750k], also a 750k-cell synthetic), reporting cells, cut,
    CPU seconds, the implied budget, and whether the run fits it. *)

(** {1 Fixed terminals (§2.1)} *)

val fixed_terminals_table :
  ?scale:float ->
  ?runs:int ->
  ?tolerance:float ->
  ?fractions:float list ->
  instance:string ->
  seed:int ->
  unit ->
  Table.t
(** The §2.1 observation that "the presence of fixed terminals
    fundamentally changes the nature of the partitioning problem": fix
    a growing random fraction of vertices (alternating sides, as
    terminal propagation produces) and report min/avg cut, cut
    standard deviation, average passes and CPU per run.  Fixed
    instances converge faster with far smaller start-to-start
    variance. *)

(** {1 Ablations} *)

val ablation_table :
  ?scale:float ->
  ?runs:int ->
  ?tolerance:float ->
  instance:string ->
  seed:int ->
  unit ->
  Table.t
(** One block per design dimension DESIGN.md §5 calls out — bucket
    insertion order, illegal-head policy, oversized-cell exclusion,
    pass-best tie-break, initial-solution generator, coarsening scheme,
    boundary refinement — with min/avg cut and average CPU seconds per
    setting, all other knobs at their strong defaults. *)

(** {1 Corking diagnostic (§2.3)} *)

val corking_report :
  ?scale:float ->
  ?runs:int ->
  ?tolerance:float ->
  instance:string ->
  seed:int ->
  unit ->
  Table.t
(** CLIP with and without the corking fix: corking events per run,
    empty passes, and resulting cuts. *)
