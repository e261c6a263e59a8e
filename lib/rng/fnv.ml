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

(* [add_int] of every element, left to right.  The loop lives here so
   the running hash stays an unboxed local instead of an [int64] boxed
   by every [add_int] call returning it.  Folding a zero byte is one
   multiply by [prime], so an element below 2^8, 2^16, 2^24 or 2^31
   folds its 1, 2, 3 or 4 low bytes and then its 7, 6, 5 or 4 zero high
   bytes as one multiply by [prime]^7, ^6, ^5 or ^4.  A negative
   element folds all 8 bytes. *)
let prime4 = Int64.mul (Int64.mul prime prime) (Int64.mul prime prime)
let prime5 = Int64.mul prime4 prime
let prime6 = Int64.mul prime5 prime
let prime7 = Int64.mul prime6 prime

let add_i32s h
    (a : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  let h = ref h in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    let x = Int32.to_int (Bigarray.Array1.unsafe_get a i) in
    h := add_byte !h x;
    if x lsr 8 = 0 then h := Int64.mul !h prime7
    else begin
      h := add_byte !h (x asr 8);
      if x lsr 16 = 0 then h := Int64.mul !h prime6
      else begin
        h := add_byte !h (x asr 16);
        if x lsr 24 = 0 then h := Int64.mul !h prime5
        else begin
          h := add_byte !h (x asr 24);
          if x >= 0 then h := Int64.mul !h prime4
          else
            for _ = 4 to 7 do
              h := add_byte !h 0xff
            done
        end
      end
    end
  done;
  !h

let to_hex h = Printf.sprintf "%016Lx" h
