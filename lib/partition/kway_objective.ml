module H = Hypart_hypergraph.Hypergraph

(* distinct parts touched, via a small sorted accumulation (net sizes
   are small; no allocation-heavy sets needed) *)
let lambda h part_of e =
  let seen = ref [] in
  H.iter_pins h e (fun v ->
      let p = part_of.(v) in
      if not (List.mem p !seen) then seen := p :: !seen);
  List.length !seen

let fold_nets h part_of ~f =
  let total = ref 0 in
  for e = 0 to H.num_edges h - 1 do
    let l = lambda h part_of e in
    total := !total + f (H.edge_weight h e) l
  done;
  !total

(* a net is cut once a pin leaves the first pin's part; no lambda *)
let cut h part_of =
  let total = ref 0 in
  for e = 0 to H.num_edges h - 1 do
    let first = ref (-1) and spans = ref false in
    H.iter_pins h e (fun v ->
        if !first = -1 then first := part_of.(v)
        else if part_of.(v) <> !first then spans := true);
    if !spans then total := !total + H.edge_weight h e
  done;
  !total
let k_minus_1 h part_of = fold_nets h part_of ~f:(fun w l -> w * (l - 1))
let soed h part_of = fold_nets h part_of ~f:(fun w l -> if l >= 2 then w * l else 0)

let part_weights h part_of ~k =
  let weights = Array.make k 0 in
  Array.iteri
    (fun v p ->
      if p < 0 || p >= k then
        invalid_arg "Kway_objective.part_weights: part out of range";
      weights.(p) <- weights.(p) + H.vertex_weight h v)
    part_of;
  weights

let imbalance h part_of ~k =
  let weights = part_weights h part_of ~k in
  let total = Array.fold_left ( + ) 0 weights in
  if total = 0 then 0.
  else
    let target = float_of_int total /. float_of_int k in
    let deviation w = Float.abs ((float_of_int w /. target) -. 1.) in
    Array.fold_left (fun acc w -> Float.max acc (deviation w)) 0. weights

let window ~tolerance ~k total =
  let target = float_of_int total /. float_of_int k in
  ( int_of_float (Float.floor ((1.0 -. tolerance) *. target)),
    int_of_float (Float.ceil ((1.0 +. tolerance) *. target)) )

let is_legal (lower, upper) weights =
  Array.for_all (fun w -> w >= lower && w <= upper) weights
