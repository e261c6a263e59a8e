module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Metrics = Hypart_telemetry.Metrics
module Kway_objective = Hypart_partition.Kway_objective

type result = {
  part_of : int array;
  cut : int;
  legal : bool;
  stats : (string * float) list;
}

let better a b = (a.legal && not b.legal) || (a.legal = b.legal && a.cut < b.cut)

(* Gain of moving [v] from its part to [q], given per-net part counts:
   +w when the move makes net [e] uncut (v's part holds exactly v and q
   holds the rest), -w when it cuts a fully-internal net. *)
let gain_of h part_of count v q =
  let p = part_of.(v) in
  H.fold_edges h v ~init:0 ~f:(fun acc e ->
      let w = H.edge_weight h e in
      let size = H.edge_size h e in
      let c_p = count.(e).(p) and c_q = count.(e).(q) in
      if c_p = size then acc - w
      else if c_p = 1 && c_q = size - 1 then acc + w
      else acc)

(* Reusable scratch arrays for [run] — the k-way analogue of
   {!Fm_workspace}.  Each domain keeps one; it fits any smaller
   hypergraph at the same k, which lets one workspace serve a whole
   multilevel k-way hierarchy (see [Ml_kway]). *)
type workspace = {
  ws_k : int;
  ws_num_vertices : int;
  ws_num_edges : int;
  ws_count : int array array;
  ws_locked : bool array;
  mutable ws_container : Gain_container.t;
}

type state = {
  h : H.t;
  k : int;
  part_of : int array;
  part_weight : int array;
  count : int array array;  (* count.(e).(part) *)
  locked : bool array;
  container : Gain_container.t;  (* move id = v * k + q, all on side 0 *)
  lower : int;
  upper : int;
  mutable cur_cut : int;
  mutable n_moves : int;
}

let recompute_counts st =
  for e = 0 to H.num_edges st.h - 1 do
    Array.fill st.count.(e) 0 st.k 0
  done;
  for v = 0 to H.num_vertices st.h - 1 do
    H.iter_edges st.h v (fun e ->
        st.count.(e).(st.part_of.(v)) <- st.count.(e).(st.part_of.(v)) + 1)
  done

let insert_moves st v =
  let p = st.part_of.(v) in
  for q = 0 to st.k - 1 do
    if q <> p then
      Gain_container.insert st.container ~side:0
        ~key:(gain_of st.h st.part_of st.count v q)
        ((v * st.k) + q)
  done

let remove_moves st v =
  for q = 0 to st.k - 1 do
    Gain_container.remove st.container ((v * st.k) + q)
  done

(* Refresh every candidate move of an unlocked vertex from scratch —
   simpler than incremental per-net deltas and still O(deg . k). *)
let refresh_moves st v =
  if not st.locked.(v) then begin
    remove_moves st v;
    insert_moves st v
  end

(* violation of one part's weight against the window *)
let part_violation st w =
  if w < st.lower then st.lower - w else if w > st.upper then w - st.upper else 0

(* acceptable: lands legal, or (balance repair) strictly reduces the
   combined violation of the two affected parts *)
let legal_move st m =
  let v = m / st.k and q = m mod st.k in
  let p = st.part_of.(v) in
  let w = H.vertex_weight st.h v in
  let before = part_violation st st.part_weight.(p) + part_violation st st.part_weight.(q) in
  let after =
    part_violation st (st.part_weight.(p) - w)
    + part_violation st (st.part_weight.(q) + w)
  in
  if before = 0 then after = 0 else after < before

let apply_move st m =
  let v = m / st.k and q = m mod st.k in
  let p = st.part_of.(v) in
  st.cur_cut <- st.cur_cut - Gain_container.key st.container m;
  remove_moves st v;
  st.locked.(v) <- true;
  let w = H.vertex_weight st.h v in
  st.part_weight.(p) <- st.part_weight.(p) - w;
  st.part_weight.(q) <- st.part_weight.(q) + w;
  st.part_of.(v) <- q;
  H.iter_edges st.h v (fun e ->
      st.count.(e).(p) <- st.count.(e).(p) - 1;
      st.count.(e).(q) <- st.count.(e).(q) + 1);
  (* neighbours' gains may have changed on the touched nets *)
  H.iter_edges st.h v (fun e -> H.iter_pins st.h e (fun u -> refresh_moves st u));
  st.n_moves <- st.n_moves + 1

let pass st =
  Gain_container.clear st.container;
  Array.fill st.locked 0 (Array.length st.locked) false;
  for v = 0 to H.num_vertices st.h - 1 do
    insert_moves st v
  done;
  let applied = ref [] and n_applied = ref 0 in
  let best_cut = ref st.cur_cut and best_idx = ref 0 in
  let legal = legal_move st in
  let continue = ref true in
  while !continue do
    let m =
      Gain_container.select st.container ~side:0 ~legal
        ~illegal_head:Fm_config.Skip_bucket
    in
    if m < 0 then continue := false
    else begin
      let v = m / st.k and from = st.part_of.(m / st.k) in
      apply_move st m;
      applied := (v, from) :: !applied;
      incr n_applied;
      if st.cur_cut < !best_cut then begin
        best_cut := st.cur_cut;
        best_idx := !n_applied
      end
    end
  done;
  (* roll back past the best prefix *)
  let undo = !n_applied - !best_idx in
  let rec undo_moves n = function
    | (v, from) :: rest when n > 0 ->
      let q = st.part_of.(v) in
      let w = H.vertex_weight st.h v in
      st.part_weight.(q) <- st.part_weight.(q) - w;
      st.part_weight.(from) <- st.part_weight.(from) + w;
      st.part_of.(v) <- from;
      undo_moves (n - 1) rest
    | _ -> ()
  in
  undo_moves undo !applied;
  recompute_counts st;
  st.cur_cut <- !best_cut;
  (!best_cut, !n_applied)

let create_workspace ~k ~num_vertices:n ~num_edges:ne ~gmax ~rng =
  Metrics.incr "fm.workspace_creates";
  {
    ws_k = k;
    ws_num_vertices = n;
    ws_num_edges = ne;
    ws_count = Array.init ne (fun _ -> Array.make k 0);
    ws_locked = Array.make n false;
    ws_container =
      Gain_container.create ~num_vertices:(n * k) ~max_key:gmax
        ~insertion:Fm_config.Lifo ~rng;
  }

let slot : workspace option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let fits ws ~k h =
  ws.ws_k = k && H.num_vertices h <= ws.ws_num_vertices && H.num_edges h <= ws.ws_num_edges

(* Replace the domain's workspace by one for [k] fitting [h] and the old
   capacity too. *)
let grow previous ~k ~gmax ~rng h =
  let n, ne =
    match previous with
    | None -> (H.num_vertices h, H.num_edges h)
    | Some ws ->
      ( max ws.ws_num_vertices (H.num_vertices h),
        max ws.ws_num_edges (H.num_edges h) )
  in
  let ws = create_workspace ~k ~num_vertices:n ~num_edges:ne ~gmax ~rng in
  Domain.DLS.set slot (Some ws);
  ws

(* The calling domain's workspace, prepared for a run on [h] at [k]
   with gain bound [gmax]. *)
let acquire ~k ~gmax ~rng h =
  match Domain.DLS.get slot with
  | Some ws when fits ws ~k h ->
    (* regrow the container if this instance's gain bound outgrew it
       (coarse levels can exceed the finest level's bound when
       contraction merges net weights); otherwise just point its RNG
       at this run's generator *)
    if Gain_container.max_key ws.ws_container < gmax then
      ws.ws_container <-
        Gain_container.create ~num_vertices:(ws.ws_num_vertices * k)
          ~max_key:(max gmax (Gain_container.max_key ws.ws_container))
          ~insertion:Fm_config.Lifo ~rng
    else Gain_container.set_rng ws.ws_container rng;
    Metrics.incr "fm.workspace_reuses";
    ws
  | previous -> grow previous ~k ~gmax ~rng h

let reserve ~k ~rng h =
  match Domain.DLS.get slot with
  | Some ws when fits ws ~k h -> ()
  | previous ->
    let gmax = max 1 (Fm_workspace.max_weighted_degree h) in
    ignore (grow previous ~k ~gmax ~rng h)

let run ?(max_passes = 30) ?(tolerance = 0.10) ~k rng h part_of =
  if k < 2 then invalid_arg "Kway_fm.run: k must be >= 2";
  if Array.length part_of <> H.num_vertices h then
    invalid_arg "Kway_fm.run: assignment length mismatch";
  let part_weight = Kway_objective.part_weights h part_of ~k in
  let ((lower, upper) as window) =
    Kway_objective.window ~tolerance ~k (H.total_vertex_weight h)
  in
  let gmax = max 1 (Fm_workspace.max_weighted_degree h) in
  let ws = acquire ~k ~gmax ~rng h in
  let st =
    {
      h;
      k;
      part_of = Array.copy part_of;
      part_weight;
      count = ws.ws_count;
      locked = ws.ws_locked;
      container = ws.ws_container;
      lower;
      upper;
      cur_cut = 0;
      n_moves = 0;
    }
  in
  recompute_counts st;
  st.cur_cut <- Kway_objective.cut h st.part_of;
  let best = ref st.cur_cut in
  let passes = ref 0 and improving = ref true in
  while !improving && !passes < max_passes do
    let pass_best, _ = pass st in
    incr passes;
    if pass_best < !best then best := pass_best else improving := false
  done;
  {
    part_of = st.part_of;
    cut = st.cur_cut;
    legal = Kway_objective.is_legal window st.part_weight;
    stats =
      [ ("passes", float_of_int !passes); ("moves", float_of_int st.n_moves) ];
  }

let run_random_start ?max_passes ?tolerance ~k rng h =
  let n = H.num_vertices h in
  (* round-robin over a random permutation: balanced for unit areas and
     close enough otherwise for FM to repair *)
  let perm = Rng.permutation rng n in
  let part_of = Array.make n 0 in
  Array.iteri (fun i v -> part_of.(v) <- i mod k) perm;
  run ?max_passes ?tolerance ~k rng h part_of
