(** Speed-dependent ranking diagrams (Schreiber & Martin; paper §3.2).

    Given each heuristic's expected best-so-far value at a grid of CPU
    budgets (and, optionally, across instances), report which heuristic
    dominates each (budget) or (instance, budget) cell — the "ranking
    diagram diagnostic that depicts regions of (instance size, CPU
    time) dominance". *)

type 'name row = {
  budget : float;
  winner : 'name;
  values : ('name * float) list;  (** all heuristics' expected costs *)
}

(* kept: the per-budget ranking the table is built from; tested directly *)
val rank_at_budgets :
  budgets:float array ->
  curves:('name * float array) list ->
  'name row list
(** [curves] pairs each heuristic with its expected BSF values at
    [budgets] (as computed by {!Bsf.expected_curve}).  Ties go to the
    heuristic listed first.  @raise Invalid_argument when a curve's
    length disagrees with [budgets] or [curves] is empty. *)

val dominance_table :
  budgets:float array ->
  per_instance:(string * ('name * float array) list) list ->
  (string * 'name array) list
(** One winners-row per instance: the (instance, budget) dominance
    matrix of the paper's ranking diagram. *)
