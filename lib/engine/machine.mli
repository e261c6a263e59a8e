(** CPU timing and machine normalization.

    The paper normalized all reported runtimes to a 200MHz Sun Ultra-2,
    computing conversion factors "on an instance-specific basis" across
    the machines used.  We provide the same mechanism: measured CPU
    seconds are multiplied by a normalization factor.  By default the
    factor is 1.0 (native seconds); {!calibrate} derives a score that
    can be used to compare runs across hosts. *)

val cpu_time : (unit -> 'a) -> 'a * float
(** [cpu_time f] runs [f] and returns its result with the CPU seconds
    the calling thread consumed ([CLOCK_THREAD_CPUTIME_ID]) plus those
    of the domains [f] fanned out to through {!Parallel.map_seeds}.
    Domains running at the same time for someone else are not charged
    to [f], so a job timed inside a parallel campaign, a memetic
    recombination or a daemon worker reports what it alone cost. *)

val charge_joined : float -> unit
(** [charge_joined s] adds [s] seconds, spent by domains the calling
    domain spawned and has joined, to what {!cpu_time} counts on it. *)

val calibrate : unit -> float
(** A machine score: millions of iterations per CPU second of a fixed
    integer/float workload.  Higher is faster.  Deterministic workload,
    so two runs on the same host agree to a few percent. *)

val normalization_factor : unit -> float
val set_normalization_factor : float -> unit
(** Factor applied by {!normalize}; e.g. set it to
    [score_this_host /. score_reference_host] to report
    reference-host seconds. *)

val normalize : float -> float
(** [normalize seconds] = [seconds *. normalization_factor ()]. *)
