(** The paper's studies that still run serially: the §2.1 placement,
    runtime-regime and fixed-terminal studies and the corking
    diagnostic.  Tables 1–5, the head-to-head comparison, the §3.2
    figures and the ablation are lab campaigns ({!Campaigns}).

    [scale] divides instance sizes (1.0 = the published sizes), [runs]
    controls the trial counts; the defaults are sized so a full
    regeneration finishes in minutes on a laptop, and the [bin/]
    runners expose flags for paper-faithful settings.  Each study draws
    from one RNG stream seeded by [seed], so it is deterministic given
    [seed]. *)

(** {1 Placement quality (§2.1)} *)

val placement_table :
  ?scale:float ->
  ?runs:int ->
  instance:string ->
  seed:int ->
  unit ->
  Hypart_lab.Table.t
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
  Hypart_lab.Table.t
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
  Hypart_lab.Table.t
(** The §2.1 observation that "the presence of fixed terminals
    fundamentally changes the nature of the partitioning problem": fix
    a growing random fraction of vertices (alternating sides, as
    terminal propagation produces) and report min/avg cut, cut
    standard deviation, average passes and CPU per run.  Fixed
    instances converge faster with far smaller start-to-start
    variance. *)

(** {1 Corking diagnostic (§2.3)} *)

val corking_report :
  ?scale:float ->
  ?runs:int ->
  ?tolerance:float ->
  instance:string ->
  seed:int ->
  unit ->
  Hypart_lab.Table.t
(** CLIP with and without the corking fix: corking events per run,
    empty passes, and resulting cuts. *)
