(* The output checker: every assignment a workload receives is re-scored
   here from the raw CSR, independently of the engine's bookkeeping, and
   every mismatch is counted as a failed operation. *)

module H = Hypart_hypergraph.Hypergraph
module Balance = Hypart_partition.Balance

(* cut and per-side weight of [side] on [h], walking every net's pins *)
let score h (side : int -> int) =
  let cut = ref 0 in
  for e = 0 to H.num_edges h - 1 do
    let on0 = ref false and on1 = ref false in
    H.iter_pins h e (fun v -> if side v = 0 then on0 := true else on1 := true);
    if !on0 && !on1 then cut := !cut + H.edge_weight h e
  done;
  let w = [| 0; 0 |] in
  for v = 0 to H.num_vertices h - 1 do
    w.(side v) <- w.(side v) + H.vertex_weight h v
  done;
  (!cut, w)

(* [None] when the reported cut and legality match the recomputation;
   otherwise the reason.  Sides are bytes '0'/'1'. *)
let check_assignment h ~tolerance ~cut ~legal (sides : Bytes.t) =
  let n = H.num_vertices h in
  if Bytes.length sides <> n then
    Some (Printf.sprintf "assignment has %d sides for %d cells" (Bytes.length sides) n)
  else if not (Bytes.for_all (fun c -> c = '0' || c = '1') sides) then
    Some "assignment side outside {0,1}"
  else
    let real_cut, w = score h (fun v -> Char.code (Bytes.get sides v) - 48) in
    let balance = Balance.of_tolerance ~total:(w.(0) + w.(1)) ~tolerance in
    let real_legal = Balance.is_legal balance ~part0_weight:w.(0) in
    if real_cut <> cut then
      Some (Printf.sprintf "reported cut %d, recomputed %d" cut real_cut)
    else if real_legal <> legal then
      Some
        (Printf.sprintf "reported legal=%b, recomputed %b (side weights %d/%d)"
           legal real_legal w.(0) w.(1))
    else None

let sides_of_array a = Bytes.init (Array.length a) (fun v -> if a.(v) = 0 then '0' else '1')

(* a plain-text partition body: one side per line *)
let sides_of_plain body =
  let b = Buffer.create (String.length body / 2) in
  String.iter (fun c -> if c = '0' || c = '1' then Buffer.add_char b c
                else if c <> '\n' && c <> '\r' then Buffer.add_char b '?')
    body;
  Buffer.to_bytes b

let array_of_sides s = Array.init (Bytes.length s) (fun v -> Char.code (Bytes.get s v) - 48)
