(** Synthetic stand-ins for the ISPD98 IBM benchmark suite.

    Each profile carries the {e published} cell/net/pin counts of the
    corresponding ISPD98 instance (Alpert, ISPD'98).  [instance]
    generates a hypergraph matching those statistics — optionally scaled
    down so that 100-start, 100-repeat experiments fit a CPU budget —
    with a seed derived from the instance name, so [ibm01s] denotes the
    same hypergraph in every experiment of this repository. *)

type profile = {
  name : string;  (** ["ibm01"] .. ["ibm18"] *)
  cells : int;
  nets : int;
  pins : int;
}

val find : string -> profile
(** Look up by name ("ibm01" or the synthetic alias "ibm01s").
    @raise Not_found on unknown names. *)

val instance :
  ?scale:float -> ?seed:int -> string -> Hypart_hypergraph.Hypergraph.t
(** [instance ~scale name] generates the synthetic twin of [name].
    [scale] (default [1.0]) divides all three counts: [~scale:8.0]
    yields an instance one-eighth the published size with the same
    shape, and [~scale:0.25] a four-times-larger one (the paper notes
    real inputs reach "one million [vertices] or more"; [ibm18] at
    [~scale:0.2] delivers that).  [seed] (default derived from [name])
    varies the instance while keeping the statistics. *)

val cells : ?scale:float -> string -> int
(** The vertex count of [instance ~scale name], without generating it. *)

val emit_instance : ?scale:float -> ?seed:int -> string -> out_channel -> unit
(** [emit_instance ~scale name oc] streams the weighted [.hgr] of
    [instance ~scale name] to [oc] in bounded memory (O(cells), never
    the full pin set) — byte-identical to
    [Netlist_io.write_hgr path (instance ~scale name)].  This is how
    million-vertex instances (e.g. ibm18 at [~scale:0.2]) are
    materialized without first building them in memory. *)

val names_small : string list
(** ["ibm01"; "ibm02"; "ibm03"] — the Table 1-3 test cases. *)

val names_eval : string list
(** ibm01–06, ibm10, ibm14, ibm18 — the Table 4/5 test cases. *)
