(** Multicore fan-out for independent multistart trials (OCaml 5
    domains).

    Every engine in this repository is a pure function of its seed (all
    state is per-run; hypergraphs are immutable), so independent starts
    parallelize trivially: give each start its own seed and join.  Note
    the paper's reporting caveat: parallel runs change {e wall-clock},
    not CPU time — best-so-far curves and the Tables 4/5 protocol are
    defined over CPU seconds and should keep using the sequential
    drivers. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

val map_seeds : ?domains:int -> seeds:int list -> (int -> 'a) -> 'a list
(** [map_seeds ~seeds f] evaluates [f seed] for every seed, fanned out
    over up to [domains] (default {!recommended_domains}) domains, and
    returns the results in seed order — identical to
    [List.map f seeds], just faster on multicore.  Exceptions raised by
    [f] are re-raised in the caller. *)
