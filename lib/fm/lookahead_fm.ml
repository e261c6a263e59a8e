module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Balance = Hypart_partition.Balance
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Initial = Hypart_partition.Initial

(* gain components saturate at +-clamp; keys are Horner-packed in base
   (2 clamp + 1) so lexicographic order on vectors = integer order on
   keys *)
let clamp = 31
let base = (2 * clamp) + 1

let saturate g = if g > clamp then clamp else if g < -clamp then -clamp else g

type state = {
  h : H.t;
  problem : Problem.t;
  lookahead : int;
  sol : Bipartition.t;
  free_count : int array array;  (* free cells of net e on side s *)
  locked_count : int array array;
  locked : bool array;
  container : Gain_container.t;
  mutable cur_cut : int;
  mutable n_moves : int;
}

(* binding number: free cells on the side, infinity (encoded -1) when a
   locked cell pins the net to that side *)
let binding st side e =
  if st.locked_count.(side).(e) > 0 then -1 else st.free_count.(side).(e)

let gain_vector st v =
  let a = Bipartition.side st.sol v in
  let b = 1 - a in
  let g = Array.make st.lookahead 0 in
  H.iter_edges st.h v (fun e ->
      let w = H.edge_weight st.h e in
      let ba = binding st a e and bb = binding st b e in
      for r = 1 to st.lookahead do
        if ba = r then g.(r - 1) <- g.(r - 1) + w;
        if bb = r - 1 then g.(r - 1) <- g.(r - 1) - w
      done);
  g

let key_of_vector g =
  Array.fold_left (fun acc c -> (acc * base) + saturate c) 0 g

(* the first component is the actual FM gain (cut change) *)
let actual_gain st v = (gain_vector st v).(0)

let max_key lookahead =
  let rec go acc r = if r = 0 then acc else go ((acc * base) + clamp) (r - 1) in
  go 0 lookahead

let recompute_counts st =
  for e = 0 to H.num_edges st.h - 1 do
    st.free_count.(0).(e) <- 0;
    st.free_count.(1).(e) <- 0;
    st.locked_count.(0).(e) <- 0;
    st.locked_count.(1).(e) <- 0
  done;
  for v = 0 to H.num_vertices st.h - 1 do
    let s = Bipartition.side st.sol v in
    let arr = if st.locked.(v) then st.locked_count else st.free_count in
    H.iter_edges st.h v (fun e -> arr.(s).(e) <- arr.(s).(e) + 1)
  done

let insertable st v = Problem.is_free st.problem v && not st.locked.(v)

let insert_vertex st v =
  Gain_container.insert st.container ~side:(Bipartition.side st.sol v)
    ~key:(key_of_vector (gain_vector st v))
    v

let refresh_vertex st v =
  if insertable st v && Gain_container.mem st.container v then begin
    Gain_container.remove st.container v;
    insert_vertex st v
  end

let apply_move st v =
  let a = Bipartition.side st.sol v in
  let b = 1 - a in
  st.cur_cut <- st.cur_cut - actual_gain st v;
  Gain_container.remove st.container v;
  st.locked.(v) <- true;
  H.iter_edges st.h v (fun e ->
      (* v leaves the free pool of A and joins the locked pool of B *)
      st.free_count.(a).(e) <- st.free_count.(a).(e) - 1;
      st.locked_count.(b).(e) <- st.locked_count.(b).(e) + 1);
  Bipartition.move st.sol st.h v;
  (* binding numbers shifted for every net of v: refresh neighbours *)
  H.iter_edges st.h v (fun e -> H.iter_pins st.h e (fun u -> refresh_vertex st u));
  st.n_moves <- st.n_moves + 1

let legal_move st v =
  let bal = st.problem.Problem.balance in
  let w0 = Bipartition.part_weight st.sol 0 in
  let w = H.vertex_weight st.h v in
  let w0' = if Bipartition.side st.sol v = 0 then w0 - w else w0 + w in
  let before = Balance.violation bal ~part0_weight:w0 in
  let after = Balance.violation bal ~part0_weight:w0' in
  if before = 0 then after = 0 else after < before

let pass st =
  Array.fill st.locked 0 (Array.length st.locked) false;
  recompute_counts st;
  Gain_container.clear st.container;
  for v = 0 to H.num_vertices st.h - 1 do
    if insertable st v then insert_vertex st v
  done;
  let moves = ref [] and n_applied = ref 0 in
  let best_cut = ref max_int and best_idx = ref 0 in
  let bal = st.problem.Problem.balance in
  if Balance.is_legal bal ~part0_weight:(Bipartition.part_weight st.sol 0) then begin
    best_cut := st.cur_cut;
    best_idx := 0
  end;
  let legal = legal_move st in
  let pick side =
    Gain_container.select st.container ~side ~legal
      ~illegal_head:Fm_config.Skip_bucket
  in
  let continue = ref true in
  while !continue do
    let v0 = pick 0 and v1 = pick 1 in
    let v =
      if v0 < 0 then v1
      else if v1 < 0 then v0
      else if Gain_container.key st.container v0
              >= Gain_container.key st.container v1
      then v0
      else v1
    in
    if v < 0 then continue := false
    else begin
      apply_move st v;
      moves := v :: !moves;
      incr n_applied;
      if Balance.is_legal bal ~part0_weight:(Bipartition.part_weight st.sol 0)
         && st.cur_cut < !best_cut
      then begin
        best_cut := st.cur_cut;
        best_idx := !n_applied
      end
    end
  done;
  let undo = if !best_cut = max_int then !n_applied else !n_applied - !best_idx in
  let rec undo_moves k = function
    | v :: rest when k > 0 ->
      Bipartition.move st.sol st.h v;
      undo_moves (k - 1) rest
    | _ -> ()
  in
  undo_moves undo !moves;
  if !best_cut <> max_int then st.cur_cut <- !best_cut
  else st.cur_cut <- Bipartition.cut st.h st.sol;
  (!best_cut, !n_applied)

let max_passes = 50

let run ?(lookahead = 2) rng problem initial =
  if lookahead < 1 || lookahead > 3 then
    invalid_arg "Lookahead_fm.run: lookahead must be in [1, 3]";
  let h = problem.Problem.hypergraph in
  let n = H.num_vertices h in
  let st =
    {
      h;
      problem;
      lookahead;
      sol = Bipartition.copy initial;
      free_count = [| Array.make (H.num_edges h) 0; Array.make (H.num_edges h) 0 |];
      locked_count =
        [| Array.make (H.num_edges h) 0; Array.make (H.num_edges h) 0 |];
      locked = Array.make n false;
      container =
        Gain_container.create ~num_vertices:n ~max_key:(max_key lookahead)
          ~insertion:Fm_config.Lifo ~rng;
      cur_cut = 0;
      n_moves = 0;
    }
  in
  st.cur_cut <- Bipartition.cut h st.sol;
  let initial_legal = Bipartition.is_legal st.sol problem.Problem.balance in
  let best = ref (if initial_legal then st.cur_cut else max_int) in
  let passes = ref 0 and improving = ref true in
  while !improving && !passes < max_passes do
    Hypart_engine.Cancel.check ();
    let pass_best, _ = pass st in
    incr passes;
    if pass_best < !best then best := pass_best else improving := false
  done;
  {
    Hypart_engine.Engine.Result.solution = st.sol;
    cut = st.cur_cut;
    legal = Problem.is_legal problem st.sol;
    stats =
      [ ("passes", float_of_int !passes); ("moves", float_of_int st.n_moves) ];
  }

let run_random_start ?lookahead rng problem =
  let initial = Initial.random rng problem in
  run ?lookahead rng problem initial
