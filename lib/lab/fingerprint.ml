module H = Hypart_hypergraph.Hypergraph

(* FNV-1a, 64-bit: h = (h xor byte) * prime.  Simple, fast enough for
   store-sized inputs, and fully specified (unlike Hashtbl.hash). *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let add_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

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
let of_string s = to_hex (add_string fnv_offset s)
let of_strings parts = to_hex (List.fold_left add_string fnv_offset parts)

let of_pairs pairs =
  let pairs = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
  let h =
    List.fold_left
      (fun h (k, v) ->
        let h = add_int h (String.length k) in
        let h = add_string h k in
        let h = add_int h (String.length v) in
        add_string h v)
      fnv_offset pairs
  in
  to_hex h

let of_instance hg =
  let h = ref (add_int fnv_offset (H.num_vertices hg)) in
  h := add_int !h (H.num_edges hg);
  h := add_int !h (H.num_pins hg);
  (* element values fold as ints, exactly as when CSR storage was
     [int array] — fingerprints are bit-identical across the int32
     Bigarray migration *)
  let fold_i32 (a : H.i32) =
    for i = 0 to Bigarray.Array1.dim a - 1 do
      h := add_int !h (Int32.to_int (Bigarray.Array1.unsafe_get a i))
    done
  in
  fold_i32 (H.Csr.vertex_weight hg);
  fold_i32 (H.Csr.edge_weight hg);
  fold_i32 (H.Csr.edge_offset hg);
  fold_i32 (H.Csr.edge_pins hg);
  to_hex !h

let mix_seed ~base parts =
  let h = add_int fnv_offset base in
  let h =
    List.fold_left
      (fun h p -> add_string (add_int h (String.length p)) p)
      h parts
  in
  Int64.to_int h land max_int
