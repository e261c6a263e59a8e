(** Experiment manifests: the declarative side of a campaign.

    A manifest names a set of experiments (engine list × instance list
    × run count at one scale/tolerance); {!jobs} expands it into the
    flat job list the orchestrator shards across domains.  Every job
    carries its own derived seed ({!Fingerprint.mix_seed} of the cell
    identity), so results are bit-identical regardless of how many
    domains execute the list, and the report generator can re-derive
    every cache key from the manifest alone — reporting never needs the
    execution order. *)

type experiment = {
  exp_name : string;  (** e.g. ["tables1-3"] — part of the seed derivation *)
  engines : string list;  (** registry names *)
  instances : string list;  (** IBM suite names *)
  scale : float;  (** instance size divisor *)
  tolerance : float;  (** balance tolerance *)
  runs : int;  (** independent seeded runs per (engine, instance) cell *)
}

type t = {
  name : string;
  seed : int;  (** campaign base seed; cell seeds are derived from it *)
  experiments : experiment list;
}

val make : name:string -> seed:int -> experiments:experiment list -> t
(** @raise Invalid_argument when an experiment has [runs <= 0],
    [scale <= 0.] or an empty engine/instance list. *)

(** {1 Built-in campaigns} *)

val campaign_names : string list
(** ["smoke"; "tables"; "multistart"; "ablation"; "corking"; "memetic"]. *)

val campaign : ?scale:float -> ?runs:int -> seed:int -> string -> t
(** [campaign ~seed name] instantiates a built-in campaign at [scale]
    (default 8.0) with [runs] per cell (default 20):
    - ["smoke"]: one engine, one instance — CI and tests;
    - ["tables"]: the Table 1–3 analogue — paper variants plus the weak
      "reported" baselines on the small instances at 2% and 10%;
    - ["multistart"]: the Table 4–5 analogue — multilevel engines on
      the evaluation suite at 2% and 10% (best-of-k statistics derive
      from the stored single-run population);
    - ["ablation"]: every registered engine family on ibm01;
    - ["corking"]: CLIP with and without the corking fix;
    - ["memetic"]: the memetic campaign engine against its plain
      multilevel baseline on the small instances — the report's
      (cost, CPU) view shows whether the population search pays for
      its extra evaluations.
    @raise Invalid_argument for unknown names, listing the known
    campaigns. *)

(** {1 Expansion} *)

type job = {
  experiment : experiment;
  engine : string;
  instance : string;
  run_index : int;  (** 0 .. runs-1 within the cell *)
  job_seed : int;  (** derived; the engine's RNG seed *)
}

val jobs : t -> job list
(** The flat job list, in deterministic manifest order. *)

val cell_id : job -> string
(** ["exp/engine/instance"] — identifies a report cell. *)

val config_fingerprint :
  scale:float -> tolerance:float -> protocol:string -> (string * string) list -> string
(** Fingerprint of everything that parameterizes a run besides the
    engine name, the instance content and the seed: scale, tolerance,
    the run protocol (["single-start"] for manifest jobs) and any extra
    pairs the protocol adds.  The config of every store-backed
    experiment protocol. *)

val job_config : job -> string
(** The {!config_fingerprint} of a job: its experiment's scale and
    tolerance under the single-start protocol. *)

val job_key : instance_fp:string -> job -> string
(** The {!Run_store.key} of a job, given the fingerprint of its
    (generated) instance. *)
