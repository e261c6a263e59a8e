module Rng = Hypart_rng.Rng

type point = { budget : float; cost : float }

let curve records =
  let _, _, rev_points =
    List.fold_left
      (fun (elapsed, best, acc) (seconds, cost) ->
        let elapsed = elapsed +. seconds in
        if cost < best then (elapsed, cost, { budget = elapsed; cost } :: acc)
        else (elapsed, best, acc))
      (0.0, infinity, []) records
  in
  List.rev rev_points

let value_at points tau =
  List.fold_left
    (fun acc p -> if p.budget <= tau then p.cost else acc)
    infinity points

let expected_curve rng ~records ~budgets ~resamples =
  if Array.length records = 0 then invalid_arg "Bsf.expected_curve: no records";
  if resamples < 1 then invalid_arg "Bsf.expected_curve: resamples must be >= 1";
  let n = Array.length records in
  let totals = Array.make (Array.length budgets) 0.0 in
  for _ = 1 to resamples do
    (* one random sequence: sample starts with replacement until the
       largest budget is exhausted *)
    let max_budget = Array.fold_left max 0.0 budgets in
    let seq = ref [] and elapsed = ref 0.0 in
    while !elapsed < max_budget do
      let seconds, cost = records.(Rng.int rng n) in
      (* guard against zero-time records looping forever *)
      let seconds = Float.max seconds 1e-9 in
      elapsed := !elapsed +. seconds;
      seq := (seconds, cost) :: !seq
    done;
    let points = curve (List.rev !seq) in
    Array.iteri
      (fun i tau -> totals.(i) <- totals.(i) +. value_at points tau)
      budgets
  done;
  Array.map (fun t -> t /. float_of_int resamples) totals

let expected_best ~k xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Bsf.expected_best: no samples";
  if k < 1 then invalid_arg "Bsf.expected_best: k must be >= 1";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  (* the i-th smallest (1-based) is the best of k draws iff every draw
     lands at rank >= i and not every draw at rank > i *)
  let at_least i = Float.pow (float_of_int (n - i + 1) /. float_of_int n) (float_of_int k) in
  let total = ref 0.0 in
  Array.iteri (fun j x -> total := !total +. (x *. (at_least (j + 1) -. at_least (j + 2)))) sorted;
  !total
