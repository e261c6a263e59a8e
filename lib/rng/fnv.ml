(* FNV-1a, 64-bit: h = (h xor byte) * prime.  Simple, fast enough for
   store-sized inputs, and fully specified (unlike Hashtbl.hash). *)
let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let add_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* a plain loop rather than [String.iter]: a ref captured by a closure
   boxes every intermediate Int64, this one stays unboxed *)
let add_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := add_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* 8 little-endian bytes per int, so adjacent ints cannot collide by
   re-chunking. *)
let add_int h i =
  let h = ref h in
  for shift = 0 to 7 do
    h := add_byte !h (i asr (shift * 8))
  done;
  !h

let to_hex h = Printf.sprintf "%016Lx" h
