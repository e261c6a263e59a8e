module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Result = Hypart_engine.Engine.Result
module Kway_objective = Hypart_partition.Kway_objective

let run ?(tolerance = 0.10) ~k rng h =
  let n = H.num_vertices h in
  if k < 1 then invalid_arg "Recursive_bisection.run: k must be >= 1";
  if k > n then invalid_arg "Recursive_bisection.run: k exceeds vertex count";
  let part_of = Array.make n (-1) in
  (* [go cells k first_id] assigns parts [first_id .. first_id + k - 1]
     to [cells]. *)
  let rec go cells k first_id =
    if k = 1 then Array.iter (fun v -> part_of.(v) <- first_id) cells
    else if Array.length cells <= k then
      (* give each cell its own part; trailing parts may stay empty *)
      Array.iteri (fun i v -> part_of.(v) <- first_id + min i (k - 1)) cells
    else begin
      let k0 = (k + 1) / 2 in
      let k1 = k - k0 in
      let keep = Array.make n false in
      Array.iter (fun v -> keep.(v) <- true) cells;
      let sub, vmap = H.induce h ~keep in
      let fraction = float_of_int k0 /. float_of_int k in
      let problem = Problem.make ~fraction ~tolerance sub in
      let r = Ml_partitioner.run rng problem in
      let side_of v = Bipartition.side r.Result.solution vmap.(v) in
      let cells0 = Array.of_list (List.filter (fun v -> side_of v = 0) (Array.to_list cells)) in
      let cells1 = Array.of_list (List.filter (fun v -> side_of v = 1) (Array.to_list cells)) in
      (* a degenerate (empty-side) split would recurse forever: fall
         back to an index split, which the balance makes unlikely *)
      let cells0, cells1 =
        if Array.length cells0 = 0 || Array.length cells1 = 0 then begin
          let m = Array.length cells * k0 / k in
          (Array.sub cells 0 m, Array.sub cells m (Array.length cells - m))
        end
        else (cells0, cells1)
      in
      go cells0 k0 first_id;
      go cells1 k1 (first_id + k0)
    end
  in
  go (Array.init n (fun v -> v)) k 0;
  {
    Hypart_fm.Kway_fm.part_of;
    cut = Kway_objective.cut h part_of;
    legal =
      Kway_objective.is_legal
        (Kway_objective.window ~tolerance ~k (H.total_vertex_weight h))
        (Kway_objective.part_weights h part_of ~k);
    stats = [];
  }
