(** Best-so-far (BSF) curves (Barr et al.; paper §3.2).

    A BSF curve plots the solution cost a multistart heuristic is
    expected to achieve against the CPU budget τ.  The input is the
    per-start record list a multistart run produces: each start's final
    cost and its CPU seconds, in execution order. *)

type point = { budget : float; cost : float }

val curve : (float * float) list -> point list
(** [curve records] — [(seconds, cost)] per start in execution order —
    is the exact step curve of that one run sequence: after each start
    completes, the best cost so far at the cumulative CPU time.  Starts
    that finish after the previous best do not add points. *)

val expected_curve :
  Hypart_rng.Rng.t ->
  records:(float * float) array ->
  budgets:float array ->
  resamples:int ->
  float array
(** Monte-Carlo estimate of the {e expected} BSF value at each budget:
    the start records are resampled with replacement into [resamples]
    random sequences; for each sequence and budget τ, the best cost
    among starts completing within τ is taken (infinity when none
    does), then averaged over sequences.  This is the
    speed-dependent-ranking primitive of Schreiber & Martin. *)

(* kept: the step lookup the curve samplers use; tested directly *)
val value_at : point list -> float -> float
(** [value_at curve tau]: the curve's cost at budget [tau] (infinity
    before the first point). *)

val expected_best : k:int -> float array -> float
(** [expected_best ~k xs]: the exact expected minimum of [k] draws with
    replacement from the sample [xs] — a BSF value after [k] starts,
    without resampling.  With [xs] sorted ascending as x₁ ≤ … ≤ x_N it
    is Σᵢ xᵢ·[((N−i+1)/N)^k − ((N−i)/N)^k].
    @raise Invalid_argument on an empty sample or [k < 1]. *)
