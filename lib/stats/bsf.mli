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

type band = { p10 : float array; median : float array; p90 : float array }

(* kept: BSF spread over resampled start orders; no report draws it yet *)
val quantile_band :
  Hypart_rng.Rng.t ->
  records:(float * float) array ->
  budgets:float array ->
  resamples:int ->
  band
(** Like {!expected_curve}, but returning the 10th/50th/90th percentile
    envelope of the resampled BSF values at each budget — the
    "descriptors of the distributions" the paper asks to accompany
    averages.  Budgets where fewer than all resamples produced a finite
    value report [infinity] for the affected quantiles. *)
