(** Experiment manifests: the declarative side of a campaign.

    A manifest names a set of experiments (engine list × instance list
    × protocol list × run count at one scale/tolerance); {!jobs}
    expands it into the flat job list the orchestrator shards across
    domains.  Every job carries its own derived seed
    ({!Fingerprint.mix_seed} of the cell identity), so results are
    bit-identical regardless of how many domains execute the list, and
    the report generator can re-derive every cache key from the
    manifest alone — reporting never needs the execution order.

    The built-in campaigns live in [lib/harness] ([Campaigns]), which
    can name the paper's FM configurations. *)

type protocol =
  | Single_start  (** one self-started engine run *)
  | Multistart of int
      (** the Tables 4–5 protocol: [n] starts sharing one RNG stream,
          then the engine improves the best once more from it (a
          V-cycle for the multilevel engines) *)

type experiment = {
  exp_name : string;  (** e.g. ["table1"] — part of the seed derivation *)
  engines : Hypart_engine.Engine.t list;
      (** engines need not be registered; keys use {!Hypart_engine.Engine.name} *)
  instances : string list;  (** IBM suite names *)
  scale : float;  (** instance size divisor *)
  tolerance : float;  (** balance tolerance *)
  protocols : protocol list;  (** the protocol axis *)
  runs : int;  (** independent seeded runs per (engine, instance, protocol) cell *)
}

type t = {
  name : string;
  seed : int;  (** campaign base seed; cell seeds are derived from it *)
  experiments : experiment list;
}

val experiment :
  ?tolerance:float ->
  ?protocols:protocol list ->
  scale:float ->
  runs:int ->
  string ->
  Hypart_engine.Engine.t list ->
  string list ->
  experiment
(** [experiment ~scale ~runs name engines instances], at [tolerance]
    (default 2%) under [protocols] (default [[Single_start]]). *)

val make : name:string -> seed:int -> experiments:experiment list -> t
(** @raise Invalid_argument when an experiment has [runs <= 0],
    [scale <= 0.], an empty engine, instance or protocol list, or a
    multistart of fewer than one start. *)

(** {1 Expansion} *)

type job = {
  experiment : experiment;
  engine : Hypart_engine.Engine.t;
  instance : string;
  protocol : protocol;
  run_index : int;  (** 0 .. runs-1 within the cell *)
  job_seed : int;  (** derived; the engine's RNG seed *)
}

val jobs : t -> job list
(** The flat job list, in deterministic manifest order. *)

val cell_jobs :
  t -> experiment -> Hypart_engine.Engine.t -> instance:string -> protocol -> job list
(** The jobs of one report cell, in run order. *)

val job_config : job -> string
(** Fingerprint of everything that parameterizes a job besides the
    engine name, the instance content and the seed: its experiment's
    scale and tolerance, and the protocol (["single-start"], or
    ["multistart+vcycle"] with its ["starts"]). *)

val job_key : instance_fp:string -> job -> string
(** The {!Run_store.key} of a job, given the fingerprint of its
    (generated) instance. *)
