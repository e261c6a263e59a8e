(* Incidence lists copied out of the CSR in storage order, for tests
   that compare the structure of two hypergraphs. *)

module H = Hypart_hypergraph.Hypergraph

let to_array n fold =
  let a = Array.make n 0 in
  ignore
    (fold ~init:0 ~f:(fun i x ->
         a.(i) <- x;
         i + 1));
  a

(* pins of edge [e] *)
let pins h e = to_array (H.edge_size h e) (H.fold_pins h e)

(* edges incident to vertex [v] *)
let edges h v = to_array (H.vertex_degree h v) (H.fold_edges h v)
