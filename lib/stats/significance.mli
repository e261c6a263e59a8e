(** Statistical significance tests.

    Brglez (cited in §3.2) argued that CAD experiments should report
    whether improvements are "due to improved heuristic [or] merely due
    to chance"; these tests answer that for cut-size samples. *)

type test_result = {
  statistic : float;
  p_value : float;  (** two-sided *)
}

val welch_t_test : float array -> float array -> test_result
(** Two-sample t-test with unequal variances (Welch).  Requires at
    least two observations per sample.  The p-value uses the Student t
    distribution with Welch-Satterthwaite degrees of freedom. *)

val mann_whitney_u : float array -> float array -> test_result
(** Mann-Whitney U (rank-sum) test with normal approximation and tie
    correction — appropriate for cut distributions, which are skewed.
    Requires at least two observations per sample. *)

(* kept: the CDF [welch_t_test] rests on, checked against tables *)
val student_t_cdf : df:float -> float -> float
(** CDF of the Student t distribution (exposed for tests). *)
