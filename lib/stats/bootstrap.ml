module Rng = Hypart_rng.Rng

type interval = { lo : float; hi : float; point : float }

let mean_ci ?(resamples = 1000) ?(level = 0.95) rng xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Bootstrap.mean_ci: empty sample";
  if level <= 0.0 || level >= 1.0 then
    invalid_arg "Bootstrap.mean_ci: level outside (0, 1)";
  if resamples < 1 then invalid_arg "Bootstrap.mean_ci: resamples must be >= 1";
  let means =
    Array.init resamples (fun _ ->
        Descriptive.mean (Array.init n (fun _ -> xs.(Rng.int rng n))))
  in
  let alpha = (1.0 -. level) /. 2.0 in
  {
    lo = Descriptive.quantile means alpha;
    hi = Descriptive.quantile means (1.0 -. alpha);
    point = Descriptive.mean xs;
  }
