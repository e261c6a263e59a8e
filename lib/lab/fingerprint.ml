module H = Hypart_hypergraph.Hypergraph

open Hypart_rng.Fnv

let of_string s = to_hex (add_string offset s)
let of_strings parts = to_hex (List.fold_left add_string offset parts)

let of_pairs pairs =
  let pairs = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
  let h =
    List.fold_left
      (fun h (k, v) ->
        let h = add_int h (String.length k) in
        let h = add_string h k in
        let h = add_int h (String.length v) in
        add_string h v)
      offset pairs
  in
  to_hex h

let of_instance hg =
  let h = ref (add_int offset (H.num_vertices hg)) in
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
  let h = add_int offset base in
  let h =
    List.fold_left
      (fun h p -> add_string (add_int h (String.length p)) p)
      h parts
  in
  Int64.to_int h land max_int
