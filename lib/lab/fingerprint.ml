module H = Hypart_hypergraph.Hypergraph

open Hypart_rng.Fnv

let of_string s = to_hex (add_string offset s)

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

let seeded_config ~tolerance ~starts =
  of_pairs
    [
      ("proto", "serve-v1");
      ("tolerance", Printf.sprintf "%.9g" tolerance);
      ("starts", string_of_int starts);
    ]

let of_instance hg =
  let h = add_int offset (H.num_vertices hg) in
  let h = add_int h (H.num_edges hg) in
  let h = add_int h (H.num_pins hg) in
  (* element values fold as ints, exactly as when CSR storage was
     [int array] — fingerprints are bit-identical across the int32
     Bigarray migration *)
  let h = add_i32s h (H.Csr.vertex_weight hg) in
  let h = add_i32s h (H.Csr.edge_weight hg) in
  let h = add_i32s h (H.Csr.edge_offset hg) in
  to_hex (add_i32s h (H.Csr.edge_pins hg))

let mix_seed ~base parts =
  let h = add_int offset base in
  let h =
    List.fold_left
      (fun h p -> add_string (add_int h (String.length p)) p)
      h parts
  in
  Int64.to_int h land max_int
