(** Campaign execution: manifest expansion, cache-aware scheduling,
    sharded parallel execution, durable recording.

    A campaign is a pure function of its manifest: every job's seed is
    derived from the cell identity, so the set of stored records is
    bit-identical whatever the domain count, and an interrupted
    campaign is resumed simply by running it again — completed cells
    are served from the {!Run_store} ([lab.cache_hits]), the rest
    execute and are recorded into it one flushed record at a time. *)

type outcome = {
  jobs : int;
      (** distinct jobs the manifest expands to: jobs sharing a cache
          key, as when an experiment lists an engine twice, count and
          run once *)
  cached : int;  (** served from the store without running an engine *)
  executed : int;  (** engine runs actually performed *)
  dropped : int;  (** malformed store lines dropped on load *)
  instance_fps : ((string * float) * string) list;
      (** the fingerprint of every (instance, scale) the campaign
          generated, for {!Report.create} *)
}

val run : ?domains:int -> store:Run_store.t -> manifest:Manifest.t -> unit -> outcome
(** Execute the campaign against [store] (which the caller opens and
    closes), fanning pending jobs over [domains]
    ({!Hypart_engine.Parallel.recommended_domains} by default).  Each
    job runs its protocol from a fresh RNG on its derived seed and is
    timed on its own domain's CPU clock.  Re-running an unchanged
    campaign performs zero engine runs.  Telemetry: [lab.jobs],
    [lab.jobs_cached], [lab.runs], [lab.cache_hits],
    [lab.cache_misses]. *)
