(* Byte-level corruption of a valid input, for decoder fuzz properties. *)

module Rng = Hypart_rng.Rng

(* [body] truncated at a random offset, or with 1-4 random bytes
   replaced by random bytes *)
let mutate rng body =
  let n = String.length body in
  if Rng.bool rng then String.sub body 0 (Rng.int rng n)
  else begin
    let b = Bytes.of_string body in
    for _ = 0 to Rng.int rng 4 do
      Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256))
    done;
    Bytes.to_string b
  end
