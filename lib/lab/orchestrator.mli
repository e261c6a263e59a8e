(** Campaign execution: manifest expansion, cache-aware scheduling,
    sharded parallel execution, durable recording.

    A campaign is a pure function of its manifest: every job's seed is
    derived from the cell identity, so the set of stored records is
    bit-identical whatever the domain count, and an interrupted
    campaign is resumed simply by running it again — completed cells
    are served from the {!Run_store} ([lab.cache_hits]), the rest
    execute and are recorded into it one flushed record at a time. *)

type outcome = {
  jobs : int;  (** total jobs the manifest expands to *)
  cached : int;  (** served from the store without running an engine *)
  executed : int;  (** engine runs actually performed *)
  dropped : int;  (** malformed store lines dropped on load *)
}

val run :
  ?domains:int -> store_dir:string -> manifest:Manifest.t -> unit -> outcome
(** Execute the campaign against the store at [store_dir] (created if
    absent), fanning pending jobs over [domains]
    ({!Hypart_engine.Parallel.recommended_domains} by default).
    Re-running an unchanged campaign performs zero engine runs.
    Telemetry: [lab.jobs], [lab.jobs_cached], [lab.runs],
    [lab.cache_hits], [lab.cache_misses]. *)
