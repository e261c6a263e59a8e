module H = Hypart_hypergraph.Hypergraph

type t = { hypergraph : H.t; balance : Balance.t; fixed : int array }

let checked_fixed fixed n =
  match fixed with
  | None -> Array.make n (-1)
  | Some f ->
    if Array.length f <> n then invalid_arg "Problem: fixed length mismatch";
    Array.iter
      (fun s ->
        if s < -1 || s > 1 then
          invalid_arg "Problem: fixed side must be -1, 0 or 1")
      f;
    Array.copy f

let with_balance ?fixed balance h =
  if H.total_vertex_weight h <> balance.Balance.total then
    invalid_arg "Problem.with_balance: total weight mismatch";
  { hypergraph = h; balance; fixed = checked_fixed fixed (H.num_vertices h) }

let make ?fixed ?fraction ~tolerance h =
  let fixed = checked_fixed fixed (H.num_vertices h) in
  let total = H.total_vertex_weight h in
  let balance =
    match fraction with
    | None -> Balance.of_tolerance ~total ~tolerance
    | Some fraction -> Balance.of_fraction ~total ~fraction ~tolerance
  in
  { hypergraph = h; balance; fixed }

let is_free p v = p.fixed.(v) < 0

let is_legal p s =
  Bipartition.is_legal s p.balance
  &&
  let ok = ref true in
  Array.iteri
    (fun v f -> if f >= 0 && Bipartition.side s v <> f then ok := false)
    p.fixed;
  !ok
