(** Bootstrap confidence intervals for arbitrary sample statistics —
    used to attach uncertainty to the mean cuts in EXPERIMENTS.md
    without distributional assumptions (cut distributions are skewed,
    so normal-theory intervals mislead). *)

type interval = { lo : float; hi : float; point : float }

val mean_ci :
  ?resamples:int -> ?level:float -> Hypart_rng.Rng.t -> float array -> interval
(** Percentile bootstrap of the mean: resample with replacement
    [resamples] times (default 1000), take each resample's mean, and
    return the [(1-level)/2] and [(1+level)/2] quantiles (default
    [level] 0.95).  [point] is the mean of the original sample.
    @raise Invalid_argument on an empty sample, a [level] outside
    (0, 1) or [resamples < 1]. *)
