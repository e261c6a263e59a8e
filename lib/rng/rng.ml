(* splitmix64: state advances by a fixed odd constant ("gamma"); output is
   a strong 64-bit mix of the state.  See Steele, Lea & Flood, "Fast
   splittable pseudorandom number generators", OOPSLA 2014. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let copy r = { state = r.state }

let bits64 r =
  r.state <- Int64.add r.state golden_gamma;
  mix64 r.state

(* Unbiased bounded integers via rejection on the top 61 bits.  OCaml's
   native int is 63-bit (max 2^62 - 1), so [1 lsl 61] is the largest
   power-of-two draw range whose size is itself representable. *)
let bits61 r = Int64.to_int (Int64.shift_right_logical (bits64 r) 3)

let int r bound =
  assert (bound > 0);
  if bound land (bound - 1) = 0 then bits61 r land (bound - 1)
  else begin
    let range = 1 lsl 61 in
    let limit = range - (range mod bound) in
    let rec draw () =
      let v = bits61 r in
      if v < limit then v mod bound else draw ()
    in
    draw ()
  end

let int_in r lo hi =
  assert (lo <= hi);
  lo + int r (hi - lo + 1)

let float r bound =
  (* 53 random bits scaled to [0,1). *)
  let v = Int64.to_float (Int64.shift_right_logical (bits64 r) 11) in
  bound *. (v /. 9007199254740992.0)

let bool r = Int64.logand (bits64 r) 1L = 1L

let geometric r ~p =
  assert (p > 0. && p <= 1.);
  if p >= 1. then 1
  else
    let u = float r 1.0 in
    let u = if u <= 0. then epsilon_float else u in
    1 + int_of_float (Float.log u /. Float.log (1. -. p))

let shuffle_in_place r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation r n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place r a;
  a

let sample_distinct r ~n ~universe =
  assert (n <= universe);
  if n * 3 >= universe then begin
    let a = permutation r universe in
    Array.sub a 0 n
  end else begin
    (* Partial Fisher-Yates over a sparse map of displaced slots. *)
    let displaced = Hashtbl.create (2 * n) in
    let get i = match Hashtbl.find_opt displaced i with Some v -> v | None -> i in
    let out = Array.make n 0 in
    for k = 0 to n - 1 do
      let j = int_in r k (universe - 1) in
      out.(k) <- get j;
      Hashtbl.replace displaced j (get k)
    done;
    out
  end

let choose_weighted r w =
  let total = Array.fold_left ( +. ) 0. w in
  assert (total > 0.);
  let target = float r total in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.
