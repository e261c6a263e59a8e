module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Balance = Hypart_partition.Balance
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Initial = Hypart_partition.Initial

(* the starting temperature accepts an average move with this
   probability; each temperature step multiplies it by [cooling] *)
let initial_acceptance = 0.5
let cooling = 0.95

let run ?initial ?(moves_per_vertex = 100) rng problem =
  let h = problem.Problem.hypergraph in
  let balance = problem.Problem.balance in
  let n = H.num_vertices h in
  let sol =
    match initial with
    | Some s -> Bipartition.copy s
    | None -> Initial.random rng problem
  in
  let side = Bipartition.assignment sol in
  let count = [| Array.make (H.num_edges h) 0; Array.make (H.num_edges h) 0 |] in
  for v = 0 to n - 1 do
    H.iter_edges h v (fun e ->
        count.(side.(v)).(e) <- count.(side.(v)).(e) + 1)
  done;
  let w0 = ref (Bipartition.part_weight sol 0) in
  let cut = ref (Bipartition.cut h sol) in
  (* balance penalty scale: a violation of one slack-width costs about
     ten average nets, quadratically *)
  let avg_net_weight =
    if H.num_edges h = 0 then 1.0
    else begin
      let s = ref 0 in
      for e = 0 to H.num_edges h - 1 do
        s := !s + H.edge_weight h e
      done;
      float_of_int !s /. float_of_int (H.num_edges h)
    end
  in
  let slack = float_of_int (max 1 (Balance.slack balance)) in
  let penalty w0 =
    let viol = float_of_int (Balance.violation balance ~part0_weight:w0) in
    10.0 *. avg_net_weight *. (viol /. slack) ** 2.0
  in
  (* cut change of flipping v, from per-net counts *)
  let cut_delta v =
    let s = side.(v) in
    H.fold_edges h v ~init:0 ~f:(fun acc e ->
        let w = H.edge_weight h e in
        let cs = count.(s).(e) and co = count.(1 - s).(e) in
        if cs = 1 then acc - w else if co = 0 then acc + w else acc)
  in
  let w0_after v =
    if side.(v) = 0 then !w0 - H.vertex_weight h v else !w0 + H.vertex_weight h v
  in
  (* cut_delta is evaluated before the counts change *)
  let flip v =
    let dc = cut_delta v in
    let s = side.(v) in
    H.iter_edges h v (fun e ->
        count.(s).(e) <- count.(s).(e) - 1;
        count.(1 - s).(e) <- count.(1 - s).(e) + 1);
    cut := !cut + dc;
    w0 := w0_after v;
    side.(v) <- 1 - s
  in
  let total_delta v =
    float_of_int (cut_delta v) +. penalty (w0_after v) -. penalty !w0
  in
  (* starting temperature from sampled deltas *)
  let sample = min 200 (4 * n) in
  let sum = ref 0.0 in
  for _ = 1 to sample do
    sum := !sum +. Float.abs (total_delta (Rng.int rng n))
  done;
  let avg_delta = Float.max 1e-9 (!sum /. float_of_int sample) in
  let temp = ref (-.avg_delta /. Float.log initial_acceptance) in
  let best_cut = ref max_int and best_side = ref (Array.copy side) in
  let record () =
    if Balance.is_legal balance ~part0_weight:!w0 && !cut < !best_cut then begin
      best_cut := !cut;
      best_side := Array.copy side
    end
  in
  record ();
  let total_moves = moves_per_vertex * n in
  let levels =
    max 1 (int_of_float (Float.ceil (Float.log 1e-4 /. Float.log cooling)))
  in
  let per_level = max 1 (total_moves / levels) in
  let accepted = ref 0 and attempted = ref 0 in
  for _ = 1 to levels do
    Hypart_engine.Cancel.check ();
    for _ = 1 to per_level do
      incr attempted;
      let v = Rng.int rng n in
      if Problem.is_free problem v then begin
        let delta = total_delta v in
        if delta <= 0.0 || Rng.float rng 1.0 < Float.exp (-.delta /. !temp)
        then begin
          flip v;
          incr accepted;
          record ()
        end
      end
    done;
    temp := !temp *. cooling
  done;
  let solution, cut, legal =
    if !best_cut < max_int then
      let s = Bipartition.make h !best_side in
      (s, !best_cut, true)
    else
      let s = Bipartition.make h side in
      (s, !cut, Balance.is_legal balance ~part0_weight:!w0)
  in
  {
    Hypart_engine.Engine.Result.solution;
    cut;
    legal;
    stats =
      [
        ("accepted", float_of_int !accepted);
        ("attempted", float_of_int !attempted);
      ];
  }

let engine =
  Hypart_engine.Engine.make ~name:"sa"
    ~description:
      "simulated annealing: single-vertex flips, geometric cooling, \
       quadratic balance penalty"
    (fun rng problem initial -> run ?initial rng problem)
