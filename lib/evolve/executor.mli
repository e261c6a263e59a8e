(** Pluggable evaluation backend for memetic campaigns.

    A campaign's seed and immigrant evaluations are seeded engine runs
    — pure functions of [(engine, seed, starts)] — so {e where} they
    execute cannot change the search trajectory.  The in-process
    executor fans jobs out over domains ({!Hypart_engine.Parallel});
    {!of_fun} wraps any other transport with the same contract — in
    particular [Fleet.executor], the [hypart serve] fleet client, which
    lives in [lib/server] (this library deliberately does not depend on
    the server stack).

    Contract for custom executors: return one result per job, in job
    order; each outcome's cut, legality and assignment must be those
    of {!run_local} on the same job.  A job is the seeded multistart
    {!Hypart_engine.Engine.multistart_seeds}, which [hypart partition]
    and the daemon's [/partition] run too, so a daemon fleet meets the
    contract by construction. *)

type job = {
  engine : string;  (** registry name, resolved per evaluation *)
  seed : int;
  starts : int;  (** seeded multistart width *)
}

type outcome = {
  cut : int;
  legal : bool;
  seconds : float;  (** CPU seconds (not normalized) *)
  assignment : int array;
  stats : (string * float) list;
      (** the winning start's {!Hypart_engine.Engine.Result.stats};
          empty from a transport whose answer carries none *)
}

type t = {
  name : string;
  eval :
    Hypart_partition.Problem.t -> job list -> (outcome, string) result list;
}

val in_process : ?domains:int -> unit -> t
(** Evaluate jobs locally, fanned out over up to [domains] domains,
    each with {!run_local}; results are in job order. *)

val of_fun :
  name:string ->
  (Hypart_partition.Problem.t -> job list -> (outcome, string) result list) ->
  t

val run_local : Hypart_partition.Problem.t -> job -> outcome
(** One job evaluated in-process on the calling domain — the reference
    every executor must reproduce (also the fallback when a remote
    answer arrives without an assignment). *)
