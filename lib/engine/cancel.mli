(** Cooperative cancellation for engine runs.

    A long-lived process (the [hypart serve] daemon, a notebook, a
    campaign driver) needs to abandon an engine run that has outlived
    its deadline without killing the whole process.  Engines are pure
    compute loops, so cancellation is cooperative: the caller installs
    a hook for the current domain, and the engines poll it at their
    natural safe points, raising {!Cancelled} when the hook fires:
    - between multistart starts;
    - before every FM, look-ahead FM and KL pass;
    - before every row of a KL pair selection (O(n . deg) work each);
    - before every SA temperature step;
    - before every spectral power iteration;
    - before every coarsening level of a multilevel run.

    The hook is domain-local ({!Domain.DLS}): installing it affects
    only engine runs executed by the installing domain and by the
    workers it fans out to through {!Parallel.map_seeds}, which run
    under the hook their caller had installed ({!current}).  So
    [memetic_ml]'s generations, which fan out, follow it too. *)

exception Cancelled
(** Raised by {!check} (from inside engine loops) when the installed
    hook reports cancellation.  The partial computation is discarded;
    engine workspaces remain reusable because every run re-prepares
    its scratch state. *)

val with_hook : (unit -> bool) -> (unit -> 'a) -> 'a
(** [with_hook hook f] runs [f] with [hook] installed for the current
    domain, restoring the previous hook afterwards (exception-safe).
    [hook] must be cheap — it is polled at every safe point listed
    above — and should return [true] once cancellation is
    requested (e.g. [fun () -> Clock.now_s () > deadline]). *)

val current : unit -> unit -> bool
(** The hook installed for the current domain (one that never fires
    when none is), for handing on to worker domains with
    {!with_hook}. *)

val check : unit -> unit
(** @raise Cancelled when the current domain's hook requests
    cancellation.  No-op (one DLS read) when no hook is installed. *)
