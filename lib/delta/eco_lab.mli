(** The [eco] lab campaign: a seeded perturbation chain through the
    persistent run store.

    Per instance: partition the base from scratch ([mlclip]), then
    replay [steps] seeded ECO perturbations — each step generates a
    [fraction] delta against the previous instance, patches it, and
    records {e two} runs on the patched instance: the warm-start
    repartition ([eco_fm] from the previous step's solution, boundary
    localized) and the from-scratch control ([mlclip]).  Every run is
    content-addressed in the store — instance identity is the chained
    delta fingerprint, seeds derive from
    {!Hypart_lab.Fingerprint.mix_seed} — so re-running an unchanged
    campaign appends nothing and the report rebuilds purely from stored
    records (the report replays only the delta/patch chain, which needs
    no engine runs, to re-derive the keys).

    The chain is not a {!Hypart_lab.Manifest} grid: each step's
    instance is patched from the previous step's and its warm start is
    the previous step's result, so its cells are only known by walking
    it.  It runs sequentially, so results are bit-identical for a fixed
    seed at any domain count by construction. *)

type params = {
  scale : float;
  steps : int;
  instances : string list;
  seed : int;
}
(** Every step perturbs 1% of the previous instance, and every problem
    and warm run uses {!Eco.default_config} (tolerance 0.02, radius 1,
    fallback fraction 0.25). *)

val params : ?scale:float -> ?steps:int -> seed:int -> unit -> params
(** Campaign defaults: scale 8, instances
    {!Hypart_generator.Ibm_suite.names_small}; [steps] defaults to 8. *)

val run : params -> Hypart_lab.Run_store.t -> Hypart_lab.Orchestrator.outcome
(** Execute the campaign against the store: every cell it does not
    hold runs and is recorded.  The outcome's [instance_fps] is
    empty. *)

val report : params -> Hypart_lab.Run_store.t -> string
(** Rebuild the campaign table from the store: per-step warm/scratch
    cuts and CPU seconds, per-instance speedup (total scratch seconds /
    total warm seconds) and the final-cut comparison the acceptance
    criterion reads.  Missing cells render as pending. *)
