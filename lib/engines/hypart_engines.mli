(** The engine catalog.  OCaml links (and runs the initializers of)
    only the modules a program references, so engine libraries cannot
    rely on top-level side effects to register themselves.  [init]
    adds the one list of built-in engines (each family module exports
    its engine values) to the {!Hypart_engine.Engine} registry; call it
    once before consulting the registry.  Idempotent and cheap after
    the first call.  A new engine is one more entry in that list. *)

val init : unit -> unit
