(* Order statistics over float samples.  Percentiles are nearest-rank
   (the value of an actual sample); quartiles follow Python's
   [statistics.quantiles(data, n=4)] exclusive method, so the spread this
   benchmark prints is the spread an outside script computes from the
   same runs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest rank: the smallest sample with at least [p]% of the samples
   at or below it; [0.] for no samples *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* (q1, median, q3); a single sample is its own quartiles *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m
