(** Pluggable evaluation backend for memetic campaigns.

    A campaign's seed and immigrant evaluations are seeded engine runs
    — pure functions of [(engine, seed, starts)] — so {e where} they
    execute cannot change the search trajectory.  The in-process
    executor fans jobs out over domains ({!Hypart_engine.Parallel});
    {!of_fun} wraps any other transport with the same contract — in
    particular the [hypart serve] fleet client, which lives in
    [lib/server] and is injected by the CLI (this library deliberately
    does not depend on the server stack).

    Contract for custom executors: return one result per job, in job
    order; each outcome must be bit-identical to the in-process
    evaluation of the same job (the daemon's seeded-run semantics
    guarantee this). *)

type job = {
  engine : string;  (** registry name, resolved per evaluation *)
  seed : int;
  starts : int;  (** seeded multistart width ([seed .. seed+starts-1]) *)
}

type outcome = {
  cut : int;
  legal : bool;
  seconds : float;  (** CPU seconds (not normalized) *)
  assignment : int array;
  source : string;  (** ["local"] or e.g. ["host:port"] *)
}

type t = {
  name : string;
  eval :
    Hypart_partition.Problem.t -> job list -> (outcome, string) result list;
}

val in_process : ?domains:int -> unit -> t
(** Evaluate jobs locally, fanned out over up to [domains] domains;
    results are in job order.  Each job is the seeded multistart
    [Engine.multistart_seeds] over [seed .. seed+starts-1], exactly as
    [hypart partition] and the daemon compute it. *)

val of_fun :
  name:string ->
  (Hypart_partition.Problem.t -> job list -> (outcome, string) result list) ->
  t

val run_local : Hypart_partition.Problem.t -> job -> outcome
(** One job evaluated in-process on the calling domain — the reference
    semantics every executor must reproduce (also the fallback when a
    remote answer arrives without an assignment). *)
