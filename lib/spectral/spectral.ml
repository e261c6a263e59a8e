module H = Hypart_hypergraph.Hypergraph
module Clique = Hypart_hypergraph.Clique_expansion
module Rng = Hypart_rng.Rng
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Engine = Hypart_engine.Engine

(* Power iteration on M = c I - L (L = D - W the clique-graph
   Laplacian), deflated against the constant vector, converges to the
   eigenvector of L's second-smallest eigenvalue — the Fiedler
   vector. *)
let iterations = 200
let min_part_fraction = 0.05

(* the vector and the power iterations it took *)
let power_iteration rng h =
  let adj = Clique.adjacency h in
  let n = Array.length adj in
  let deg = Clique.degrees adj in
  let c = 1.0 +. Array.fold_left Float.max 0.0 deg in
  let x = Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0) in
  let y = Array.make n 0.0 in
  let deflate v =
    let mean = Array.fold_left ( +. ) 0.0 v /. float_of_int n in
    Array.map (fun a -> a -. mean) v
  in
  let normalize v =
    let norm = sqrt (Array.fold_left (fun acc a -> acc +. (a *. a)) 0.0 v) in
    if norm > 0.0 then Array.map (fun a -> a /. norm) v else v
  in
  let x = ref (normalize (deflate x)) in
  let used = ref 0 in
  (try
     for it = 1 to iterations do
       Hypart_engine.Cancel.check ();
       used := it;
       (* y = (c I - L) x = (c - deg_v) x_v + sum_u w(u,v) x_u *)
       for v = 0 to n - 1 do
         let acc = ref ((c -. deg.(v)) *. !x.(v)) in
         List.iter (fun (u, w) -> acc := !acc +. (w *. !x.(u))) adj.(v);
         y.(v) <- !acc
       done;
       let next = normalize (deflate (Array.copy y)) in
       (* convergence: direction change below tolerance *)
       let dot = ref 0.0 in
       for v = 0 to n - 1 do
         dot := !dot +. (next.(v) *. !x.(v))
       done;
       x := next;
       if 1.0 -. Float.abs !dot < 1e-10 then raise Exit
     done
   with Exit -> ());
  (!x, !used)

let fiedler rng h = fst (power_iteration rng h)

let run rng problem =
  let h = problem.Problem.hypergraph in
  let n = H.num_vertices h in
  if n < 2 then invalid_arg "Spectral.run: need at least two vertices";
  let fiedler, used = power_iteration rng h in
  (* sweep the Fiedler ordering, maintaining the hyperedge cut
     incrementally: moving vertex v from side 1 to side 0 changes the
     cut by (nets v completes on 0) - (nets v leaves fully on 1) *)
  let order = Array.init n (fun v -> v) in
  Array.sort (fun a b -> compare (fiedler.(a), a) (fiedler.(b), b)) order;
  let count0 = Array.make (H.num_edges h) 0 in
  let cut = ref 0 in
  let total_weight = float_of_int (H.total_vertex_weight h) in
  let w0 = ref 0.0 in
  let best_ratio = ref infinity and best_prefix = ref 0 in
  let min_weight = min_part_fraction *. total_weight in
  for i = 0 to n - 2 do
    let v = order.(i) in
    H.iter_edges h v (fun e ->
        let size = H.edge_size h e in
        let before = count0.(e) in
        count0.(e) <- before + 1;
        if before = 0 && size > 1 then cut := !cut + H.edge_weight h e
        else if before + 1 = size && size > 1 then cut := !cut - H.edge_weight h e);
    w0 := !w0 +. float_of_int (H.vertex_weight h v);
    let w1 = total_weight -. !w0 in
    if !w0 >= min_weight && w1 >= min_weight then begin
      let half = total_weight /. 2.0 in
      let ratio = float_of_int !cut *. half *. half /. (!w0 *. w1) in
      if ratio < !best_ratio then begin
        best_ratio := ratio;
        best_prefix := i + 1
      end
    end
  done;
  (* fallback when the minimum-fraction window is empty (tiny graphs) *)
  if !best_ratio = infinity then best_prefix := max 1 (n / 2);
  let side = Array.make n 1 in
  for i = 0 to !best_prefix - 1 do
    side.(order.(i)) <- 0
  done;
  let solution = Bipartition.make h side in
  let cut = Bipartition.cut h solution in
  let ratio_cut =
    let w0 = float_of_int (Bipartition.part_weight solution 0) in
    let w1 = float_of_int (Bipartition.part_weight solution 1) in
    let half = total_weight /. 2.0 in
    if w0 = 0.0 || w1 = 0.0 then infinity
    else float_of_int cut *. half *. half /. (w0 *. w1)
  in
  {
    Engine.Result.solution;
    cut;
    legal = Problem.is_legal problem solution;
    stats = [ ("ratio_cut", ratio_cut); ("iterations", float_of_int used) ];
  }

let engine =
  Engine.make ~name:"spectral"
    ~description:
      "EIG1 spectral ratio cut: Fiedler vector plus linear-ordering sweep \
       (no balance constraint)"
    (fun rng problem _initial -> run rng problem)
