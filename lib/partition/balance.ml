type t = { lower : int; upper : int; total : int; tolerance : float }

(* written so that NaN fails it *)
let valid_tolerance tolerance = tolerance >= 0.0 && tolerance < 1.0

let check_common ~total ~tolerance =
  if total <= 0 then invalid_arg "Balance: non-positive total";
  if not (valid_tolerance tolerance) then
    invalid_arg "Balance: tolerance must be in [0, 1)"

let of_tolerance ~total ~tolerance =
  check_common ~total ~tolerance;
  let w = float_of_int total in
  (* complementary bounds: upper = total - lower, so an exact bisection
     of an odd total (floor/ceil halves) is always legal *)
  let lower = int_of_float (Float.floor ((0.5 -. (tolerance /. 2.)) *. w)) in
  let lower = min lower (total / 2) in
  { lower; upper = total - lower; total; tolerance }

let of_fraction ~total ~fraction ~tolerance =
  check_common ~total ~tolerance;
  if fraction <= 0.0 || fraction >= 1.0 then
    invalid_arg "Balance.of_fraction: fraction must be in (0, 1)";
  let w = float_of_int total in
  let lower = int_of_float (Float.floor ((fraction -. (tolerance /. 2.)) *. w)) in
  let upper = int_of_float (Float.ceil ((fraction +. (tolerance /. 2.)) *. w)) in
  let lower = max 0 lower and upper = min total upper in
  (* the target weight itself must always be feasible *)
  let target = int_of_float (Float.round (fraction *. w)) in
  { lower = min lower target; upper = max upper target; total; tolerance }

let is_legal b ~part0_weight = part0_weight >= b.lower && part0_weight <= b.upper

let slack b = b.upper - b.lower

let violation b ~part0_weight =
  if part0_weight < b.lower then b.lower - part0_weight
  else if part0_weight > b.upper then part0_weight - b.upper
  else 0

let pp ppf b =
  Format.fprintf ppf "balance: part 0 in [%d, %d] of %d (tol %.0f%%)" b.lower
    b.upper b.total (100. *. b.tolerance)
