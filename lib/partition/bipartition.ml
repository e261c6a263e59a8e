module H = Hypart_hypergraph.Hypergraph
module Csr = Hypart_hypergraph.Hypergraph.Csr

type t = { side : int array; weight : int array (* length 2 *) }

(* One int32 CSR element as int; the compiler unboxes the [Int32.t]. *)
let[@inline] ba (a : H.i32) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

let make h side =
  if Array.length side <> H.num_vertices h then
    invalid_arg "Bipartition.make: assignment length mismatch";
  let vw = Csr.vertex_weight h in
  let w0 = ref 0 and w1 = ref 0 in
  for v = 0 to Array.length side - 1 do
    match side.(v) with
    | 0 -> w0 := !w0 + ba vw v
    | 1 -> w1 := !w1 + ba vw v
    | _ -> invalid_arg "Bipartition.make: side must be 0 or 1"
  done;
  { side = Array.copy side; weight = [| !w0; !w1 |] }

let side s v = s.side.(v)
let num_vertices s = Array.length s.side
let part_weight s p = s.weight.(p)
let block_weights s = Array.copy s.weight

let imbalance s =
  let total = s.weight.(0) + s.weight.(1) in
  if total = 0 then 0.
  else
    let target = float_of_int total /. 2. in
    (float_of_int (max s.weight.(0) s.weight.(1)) /. target) -. 1.

let assignment s = Array.copy s.side
let copy s = { side = Array.copy s.side; weight = Array.copy s.weight }

let move s h v =
  let from = s.side.(v) in
  let w = H.vertex_weight h v in
  s.weight.(from) <- s.weight.(from) - w;
  s.weight.(1 - from) <- s.weight.(1 - from) + w;
  s.side.(v) <- 1 - from

let pins_on_side h s e =
  let c0 = ref 0 and c1 = ref 0 in
  H.iter_pins h e (fun v -> if s.side.(v) = 0 then incr c0 else incr c1);
  (!c0, !c1)

(* a net is cut as soon as one pin sits on the other side from its
   first pin: the scan of each pin slice stops there *)
let cut h s =
  let eoff = Csr.edge_offset h and epins = Csr.edge_pins h in
  let ew = Csr.edge_weight h and side = s.side in
  let total = ref 0 in
  for e = 0 to H.num_edges h - 1 do
    let stop = ba eoff (e + 1) in
    let first = ba eoff e in
    if first < stop then begin
      let s0 = side.(ba epins first) in
      let i = ref (first + 1) in
      while !i < stop && side.(ba epins !i) = s0 do
        incr i
      done;
      if !i < stop then total := !total + ba ew e
    end
  done;
  !total

let is_legal s balance = Balance.is_legal balance ~part0_weight:s.weight.(0)

let equal a b = a.side = b.side

let similarity a b =
  let n = Array.length a.side in
  if Array.length b.side <> n then
    invalid_arg "Bipartition.similarity: size mismatch";
  if n = 0 then 1.0
  else begin
    let agree = ref 0 in
    for v = 0 to n - 1 do
      if a.side.(v) = b.side.(v) then incr agree
    done;
    float_of_int (max !agree (n - !agree)) /. float_of_int n
  end
