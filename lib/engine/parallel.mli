(** Multicore fan-out for independent multistart trials (OCaml 5
    domains).

    Every engine in this repository is a pure function of its seed (all
    state is per-run; hypergraphs are immutable), so independent starts
    parallelize trivially: give each start its own seed and join.  The paper's
    reporting unit survives the fan-out: {!Machine.cpu_time} reads the
    calling domain's own clock, so a start timed on one domain is not
    charged for the others; a call timed around a fan-out is charged
    the CPU of every worker domain, which {!map_seeds} hands back on
    join.  Parallel runs change {e wall-clock} only. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

val map_seeds : ?domains:int -> seeds:int list -> (int -> 'a) -> 'a list
(** [map_seeds ~seeds f] evaluates [f seed] for every seed, fanned out
    over up to [domains] (default {!recommended_domains}) domains, and
    returns the results in seed order — identical to
    [List.map f seeds], just faster on multicore.  Each domain claims
    the next unclaimed seed, so seeds of uneven cost balance.  Exceptions raised by
    [f] are re-raised in the caller. *)
