module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Fm = Hypart_fm.Fm
module Engine = Hypart_engine.Engine
module Fm_config = Hypart_fm.Fm_config
module Ml = Hypart_multilevel.Ml_partitioner

type config = {
  leaf_cells : int;
  tolerance : float;
  use_multilevel : bool;
  ml_threshold : int;
  fm : Fm_config.t;
}

let default_config =
  {
    leaf_cells = 8;
    tolerance = 0.10;
    use_multilevel = true;
    ml_threshold = 600;
    fm = Fm_config.strong_lifo;
  }

type placement = {
  x : float array;
  y : float array;
  width : float;
  height : float;
}

type region = { x0 : float; y0 : float; x1 : float; y1 : float; cells : int array }

(* Final positions inside a leaf region: a small row-major grid, so
   cells don't stack on one point (mimics coarse row assignment). *)
let finalize_leaf pl r =
  let k = Array.length r.cells in
  if k > 0 then begin
    let cols = int_of_float (Float.ceil (sqrt (float_of_int k))) in
    let rows = (k + cols - 1) / cols in
    let cw = (r.x1 -. r.x0) /. float_of_int cols in
    let ch = (r.y1 -. r.y0) /. float_of_int rows in
    Array.iteri
      (fun i v ->
        let col = i mod cols and row = i / cols in
        pl.x.(v) <- r.x0 +. ((float_of_int col +. 0.5) *. cw);
        pl.y.(v) <- r.y0 +. ((float_of_int row +. 0.5) *. ch))
      r.cells
  end

(* Build the region subproblem with propagated terminals and partition
   it.  Returns the side of every region cell.  [serial] stamps the
   per-net scratch arrays so they need no clearing between regions. *)
let partition_region config rng h pl r ~vertical ~net_stamp ~net_serial
    ~local_of =
  let cells = r.cells in
  let n_cells = Array.length cells in
  Array.iteri (fun i v -> local_of.(v) <- i) cells;
  let mid = if vertical then (r.x0 +. r.x1) /. 2.0 else (r.y0 +. r.y1) /. 2.0 in
  (* collect incident nets once *)
  let nets = ref [] in
  Array.iter
    (fun v ->
      H.iter_edges h v (fun e ->
          if net_stamp.(e) <> net_serial then begin
            net_stamp.(e) <- net_serial;
            nets := e :: !nets
          end))
    cells;
  (* terminals: one per net with external pins, fixed to the side of the
     external pins' centroid *)
  let sub_edges = ref [] and sub_weights = ref [] in
  let terminals = ref [] in
  (* (terminal side) in discovery order *)
  let n_terminals = ref 0 in
  List.iter
    (fun e ->
      let internal = ref [] and ext_x = ref 0.0 and ext_y = ref 0.0 in
      let n_ext = ref 0 in
      H.iter_pins h e (fun u ->
          if local_of.(u) >= 0 then internal := local_of.(u) :: !internal
          else begin
            ext_x := !ext_x +. pl.x.(u);
            ext_y := !ext_y +. pl.y.(u);
            incr n_ext
          end);
      let internal = !internal in
      let keep =
        match internal with [] | [ _ ] -> !n_ext > 0 && internal <> [] | _ -> true
      in
      if keep then begin
        let pins =
          if !n_ext > 0 then begin
            let cx = !ext_x /. float_of_int !n_ext in
            let cy = !ext_y /. float_of_int !n_ext in
            let coord = if vertical then cx else cy in
            let side = if coord <= mid then 0 else 1 in
            let t = n_cells + !n_terminals in
            incr n_terminals;
            terminals := side :: !terminals;
            t :: internal
          end
          else internal
        in
        sub_edges := Array.of_list pins :: !sub_edges;
        sub_weights := H.edge_weight h e :: !sub_weights
      end)
    !nets;
  let n_sub = n_cells + !n_terminals in
  let vertex_weights =
    Array.init n_sub (fun i ->
        if i < n_cells then H.vertex_weight h cells.(i) else 1)
  in
  let fixed = Array.make n_sub (-1) in
  List.iteri
    (fun i side -> fixed.(n_cells + (!n_terminals - 1 - i)) <- side)
    !terminals;
  let sub =
    H.create ~vertex_weights
      ~edge_weights:(Array.of_list !sub_weights)
      ~num_vertices:n_sub
      ~edges:(Array.of_list !sub_edges)
      ()
  in
  let problem = Problem.make ~fixed ~tolerance:config.tolerance sub in
  let result =
    if config.use_multilevel && n_cells >= config.ml_threshold then
      Ml.run ~config:{ Ml.default with Ml.fm = config.fm } rng problem
    else Fm.run_random_start ~config:config.fm rng problem
  in
  (* reset the local map for the next region *)
  Array.iter (fun v -> local_of.(v) <- -1) cells;
  Array.init n_cells (fun i -> Bipartition.side result.Engine.Result.solution i)

(* Split the region at the area-weighted cutline and enqueue children,
   updating each cell's position estimate to its child-region centre. *)
let push_children pl queue r ~vertical ~cells0 ~cells1 h =
  let weight cells =
    Array.fold_left (fun acc v -> acc + H.vertex_weight h v) 0 cells
  in
  let w0 = float_of_int (weight cells0) and w1 = float_of_int (weight cells1) in
  let frac = if w0 +. w1 = 0.0 then 0.5 else w0 /. (w0 +. w1) in
  (* clamp so neither child collapses *)
  let frac = Float.max 0.1 (Float.min 0.9 frac) in
  let child0, child1 =
    if vertical then begin
      let xm = r.x0 +. (frac *. (r.x1 -. r.x0)) in
      ( { r with x1 = xm; cells = cells0 }, { r with x0 = xm; cells = cells1 } )
    end
    else begin
      let ym = r.y0 +. (frac *. (r.y1 -. r.y0)) in
      ( { r with y1 = ym; cells = cells0 }, { r with y0 = ym; cells = cells1 } )
    end
  in
  List.iter
    (fun child ->
      let cx = (child.x0 +. child.x1) /. 2.0 in
      let cy = (child.y0 +. child.y1) /. 2.0 in
      Array.iter
        (fun v ->
          pl.x.(v) <- cx;
          pl.y.(v) <- cy)
        child.cells;
      Queue.push child queue)
    [ child0; child1 ]

type box = { x0 : float; x1 : float; y0 : float; y1 : float }

let net_box h pl e =
  let min_x = ref infinity and max_x = ref neg_infinity in
  let min_y = ref infinity and max_y = ref neg_infinity in
  H.iter_pins h e (fun v ->
      if pl.x.(v) < !min_x then min_x := pl.x.(v);
      if pl.x.(v) > !max_x then max_x := pl.x.(v);
      if pl.y.(v) < !min_y then min_y := pl.y.(v);
      if pl.y.(v) > !max_y then max_y := pl.y.(v));
  { x0 = !min_x; x1 = !max_x; y0 = !min_y; y1 = !max_y }

let half_perimeter b = b.x1 -. b.x0 +. (b.y1 -. b.y0)

let hpwl h pl =
  let total = ref 0.0 in
  for e = 0 to H.num_edges h - 1 do
    if H.edge_size h e >= 2 then
      total :=
        !total
        +. (float_of_int (H.edge_weight h e) *. half_perimeter (net_box h pl e))
  done;
  !total

let random_placement rng h =
  let n = H.num_vertices h in
  let side_len = sqrt (float_of_int (max 1 (H.total_vertex_weight h))) in
  {
    x = Array.init n (fun _ -> Rng.float rng side_len);
    y = Array.init n (fun _ -> Rng.float rng side_len);
    width = side_len;
    height = side_len;
  }

let place ?(config = default_config) rng h =
  let n = H.num_vertices h in
  let side_len = sqrt (float_of_int (max 1 (H.total_vertex_weight h))) in
  let pl =
    {
      x = Array.make n (side_len /. 2.0);
      y = Array.make n (side_len /. 2.0);
      width = side_len;
      height = side_len;
    }
  in
  if n = 0 then pl
  else begin
    let net_stamp = Array.make (max 1 (H.num_edges h)) (-1) in
    let net_serial = ref 0 in
    let local_of = Array.make n (-1) in
    let queue = Queue.create () in
    Queue.push
      { x0 = 0.0; y0 = 0.0; x1 = side_len; y1 = side_len;
        cells = Array.init n (fun v -> v) }
      queue;
    while not (Queue.is_empty queue) do
      let r = Queue.pop queue in
      if Array.length r.cells <= config.leaf_cells then finalize_leaf pl r
      else begin
        let vertical = r.x1 -. r.x0 >= r.y1 -. r.y0 in
        incr net_serial;
        let sides =
          partition_region config rng h pl r ~vertical ~net_stamp
            ~net_serial:!net_serial ~local_of
        in
        let pick s =
          let acc = ref [] in
          Array.iteri (fun i v -> if sides.(i) = s then acc := v :: !acc) r.cells;
          Array.of_list (List.rev !acc)
        in
        let cells0 = pick 0 and cells1 = pick 1 in
        if Array.length cells0 = 0 || Array.length cells1 = 0 then begin
          (* degenerate partition (can happen when terminals dominate a
             tiny region): fall back to an index split *)
          let k = Array.length r.cells / 2 in
          let cells0 = Array.sub r.cells 0 k in
          let cells1 = Array.sub r.cells k (Array.length r.cells - k) in
          push_children pl queue r ~vertical ~cells0 ~cells1 h
        end
        else push_children pl queue r ~vertical ~cells0 ~cells1 h
      end
    done;
    pl
  end

