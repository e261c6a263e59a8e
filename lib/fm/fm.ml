module H = Hypart_hypergraph.Hypergraph
module Csr = Hypart_hypergraph.Hypergraph.Csr
module Rng = Hypart_rng.Rng
module Balance = Hypart_partition.Balance
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Initial = Hypart_partition.Initial

let log_src = Logs.Src.create "hypart.fm" ~doc:"FM engine pass tracing"

module Log = (val Logs.src_log log_src)
module Tel = Hypart_telemetry.Control
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace
module Event_log = Hypart_telemetry.Event_log
module Jsonl = Hypart_telemetry.Jsonl
module Result = Hypart_engine.Engine.Result

(* Test hook: force the all-deltas-zero shortcut in [apply_move] off so
   property tests can check it never changes results (it is sound for
   [Nonzero_only] and must never fire under [All_delta_gain]). *)
let zero_delta_fast_path = ref true

(* Mutable per-run state.  The O(V+E) arrays live in the domain's
   workspace; the CSR slices are zero-copy views of the hypergraph so
   the hot loops below are flat index loops with no closure calls.  [count0/count1.(e)] is the number of pins of
   net [e] on that side; [gain.(v)] is the actual gain (cut decrease)
   of moving [v]; for CLIP the container key is the cumulative delta
   gain [gain.(v) - initial_gain.(v)] instead. *)
type state = {
  h : H.t;
  problem : Problem.t;
  config : Fm_config.t;
  sol : Bipartition.t;
  ws : Fm_workspace.t;
  eoff : H.i32;
  epins : H.i32;
  voff : H.i32;
  vedges : H.i32;
  ew : H.i32;
  count0 : int array;
  count1 : int array;
  gain : int array;
  container : Gain_container.t;
  mutable cur_cut : int;
  mutable n_moves : int;
  mutable n_corking : int;
  mutable n_zero_delta : int;
  mutable n_repairs : int;
  mutable first_pass_done : bool;
}

(* One int32 CSR element as int.  The intermediate [Int32.t] is unboxed
   by the compiler, so the flat loops below stay allocation-free. *)
let[@inline] ba (a : H.i32) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

let recompute_counts st =
  let ne = H.num_edges st.h in
  Array.fill st.count0 0 ne 0;
  Array.fill st.count1 0 ne 0;
  let voff = st.voff and vedges = st.vedges in
  for v = 0 to H.num_vertices st.h - 1 do
    let cnt = if Bipartition.side st.sol v = 0 then st.count0 else st.count1 in
    for i = ba voff v to ba voff (v + 1) - 1 do
      let e = ba vedges i in
      Array.unsafe_set cnt e (Array.unsafe_get cnt e + 1)
    done
  done

(* Contribution of one net to the gain of a vertex on the side holding
   [cs] of its pins ([co] on the other side): +w when the vertex is
   alone on its side, -w when the net is entirely on its side. *)
let[@inline] contrib w cs co = if cs = 1 then w else if co = 0 then -w else 0

(* Actual gain of [v] from scratch. *)
let compute_gain st v =
  let cs_arr, co_arr =
    if Bipartition.side st.sol v = 0 then (st.count0, st.count1)
    else (st.count1, st.count0)
  in
  let voff = st.voff and vedges = st.vedges and ew = st.ew in
  let acc = ref 0 in
  for i = ba voff v to ba voff (v + 1) - 1 do
    let e = ba vedges i in
    acc :=
      !acc
      + contrib (ba ew e) (Array.unsafe_get cs_arr e) (Array.unsafe_get co_arr e)
  done;
  !acc

(* Eligibility for the gain structure: free, (with the corking fix) not
   heavier than the balance slack, and (under boundary refinement) on
   at least one cut net. *)
let on_boundary st v =
  let vedges = st.vedges in
  let stop = ba st.voff (v + 1) in
  let i = ref (ba st.voff v) and found = ref false in
  while (not !found) && !i < stop do
    let e = ba vedges !i in
    if Array.unsafe_get st.count0 e > 0 && Array.unsafe_get st.count1 e > 0
    then found := true;
    incr i
  done;
  !found

let insertable st v =
  Problem.is_free st.problem v
  && ((not st.config.Fm_config.exclude_oversized)
      || H.vertex_weight st.h v <= Balance.slack st.problem.Problem.balance)
  && ((not st.config.Fm_config.boundary_only) || on_boundary st v)

(* Stable counting sort of [src.(0 .. m-1)] by gain into [dst], over
   the observed gain range (at most [Array.length count] values: see
   [Fm_workspace.gain_count]).  [src] holds ids in ascending order, so
   [dst] comes out ascending by [(gain, id)] — the CLIP populate order.
   O(m + range), no allocation. *)
let order_by_gain gain count src dst m =
  if m > 0 then begin
    let lo = ref max_int and hi = ref min_int in
    for i = 0 to m - 1 do
      let g = Array.unsafe_get gain (Array.unsafe_get src i) in
      if g < !lo then lo := g;
      if g > !hi then hi := g
    done;
    let lo = !lo and range = !hi - !lo + 1 in
    Array.fill count 0 range 0;
    for i = 0 to m - 1 do
      let b = Array.unsafe_get gain (Array.unsafe_get src i) - lo in
      count.(b) <- count.(b) + 1
    done;
    (* exclusive prefix sums: count.(b) becomes bucket b's first slot *)
    let sum = ref 0 in
    for b = 0 to range - 1 do
      let c = count.(b) in
      count.(b) <- !sum;
      sum := !sum + c
    done;
    for i = 0 to m - 1 do
      let v = Array.unsafe_get src i in
      let b = Array.unsafe_get gain v - lo in
      dst.(count.(b)) <- v;
      count.(b) <- count.(b) + 1
    done
  end

(* Populate the container for a pass.  The first pass of a run computes
   every insertable gain from scratch; later passes repair only the
   vertices whose gain could have changed — the pins of nets whose
   counts moved last pass (every net an applied move touched is
   stamped, whether or not the move survived rollback).  CLIP inserts
   every move with key 0, ordered so the highest-initial-gain cells end
   up at the bucket heads: the insertable ids are collected ascending
   and counting-sorted by initial gain into the workspace's [sorted]
   array, a stable O(m + gain range) pass over buffers the workspace
   holds.  Classic FM inserts with key = gain in vertex order. *)
let populate st =
  Gain_container.clear st.container;
  let n = H.num_vertices st.h in
  let ws = st.ws in
  if not st.first_pass_done then begin
    for v = 0 to n - 1 do
      if insertable st v then st.gain.(v) <- compute_gain st v
    done;
    ws.Fm_workspace.n_touched <- 0
  end
  else begin
    let gen = ws.Fm_workspace.generation in
    let vstamp = ws.Fm_workspace.vertex_stamp in
    let touched = ws.Fm_workspace.touched in
    let eoff = st.eoff and epins = st.epins in
    for i = 0 to ws.Fm_workspace.n_touched - 1 do
      let e = touched.(i) in
      for j = ba eoff e to ba eoff (e + 1) - 1 do
        let u = ba epins j in
        if vstamp.(u) <> gen then begin
          vstamp.(u) <- gen;
          if insertable st u then st.gain.(u) <- compute_gain st u
        end
      done
    done;
    ws.Fm_workspace.n_touched <- 0;
    st.n_repairs <- st.n_repairs + 1
  end;
  match st.config.Fm_config.engine with
  | Fm_config.Lifo_fm ->
    for v = 0 to n - 1 do
      if insertable st v then
        Gain_container.insert st.container ~side:(Bipartition.side st.sol v)
          ~key:st.gain.(v) v
    done
  | Fm_config.Clip_fm ->
    let order = ws.Fm_workspace.order and sorted = ws.Fm_workspace.sorted in
    let m = ref 0 in
    for v = 0 to n - 1 do
      if insertable st v then begin
        order.(!m) <- v;
        incr m
      end
    done;
    (* ascending initial gain: with LIFO insertion the last (highest
       gain) vertex lands at the bucket head, as CLIP prescribes; with
       FIFO we insert descending instead so heads still hold the
       highest-gain cells. *)
    order_by_gain st.gain ws.Fm_workspace.gain_count order sorted !m;
    let insert v =
      Gain_container.insert st.container ~side:(Bipartition.side st.sol v)
        ~key:0 v
    in
    (match st.config.Fm_config.insertion with
     | Fm_config.Fifo ->
       for i = !m - 1 downto 0 do
         insert sorted.(i)
       done
     | Fm_config.Lifo | Fm_config.Random ->
       for i = 0 to !m - 1 do
         insert sorted.(i)
       done)

(* Apply the move of [v] and propagate delta gains to its neighbours
   per the naive "four cut values" scheme the paper describes: for each
   incident net, each unlocked neighbour's contribution is recomputed
   from the pin counts before and after the move, and the neighbour is
   repositioned unless the delta is zero and the policy says skip.  A
   neighbour is unlocked exactly when it is still in the gain
   container: a move removes its vertex, and nothing is inserted again
   before the next pass's [populate], so membership is the lock.
   Every incident net is stamped as touched so the next pass can repair
   exactly the gains this move could have invalidated. *)
let apply_move st v =
  let f = Bipartition.side st.sol v in
  st.cur_cut <- st.cur_cut - st.gain.(v);
  Gain_container.remove st.container v;
  let ws = st.ws in
  let gen = ws.Fm_workspace.generation in
  let estamp = ws.Fm_workspace.edge_stamp in
  let touched = ws.Fm_workspace.touched in
  let count_f, count_t =
    if f = 0 then (st.count0, st.count1) else (st.count1, st.count0)
  in
  let fast_path_ok =
    st.config.Fm_config.update = Fm_config.Nonzero_only && !zero_delta_fast_path
  in
  let eoff = st.eoff and epins = st.epins and ew = st.ew in
  for i = ba st.voff v to ba st.voff (v + 1) - 1 do
    let e = ba st.vedges i in
    if estamp.(e) <> gen then begin
      estamp.(e) <- gen;
      touched.(ws.Fm_workspace.n_touched) <- e;
      ws.Fm_workspace.n_touched <- ws.Fm_workspace.n_touched + 1
    end;
    let w = ba ew e in
    let cb_f = Array.unsafe_get count_f e and cb_t = Array.unsafe_get count_t e in
    let ca_f = cb_f - 1 and ca_t = cb_t + 1 in
    (* when both sides stay at >= 2 pins (source at >= 3 before the
       move), every neighbour's delta is provably zero: skip the pin
       scan.  Under All_delta_gain those zero deltas must still
       reposition vertices, so the fast path applies to Nonzero_only
       runs — where it makes moves on huge clock-like nets O(1). *)
    if fast_path_ok && cb_f >= 3 && cb_t >= 2 then begin
      Array.unsafe_set count_f e ca_f;
      Array.unsafe_set count_t e ca_t
    end
    else begin
      for j = ba eoff e to ba eoff (e + 1) - 1 do
        let u = ba epins j in
        if u <> v && Gain_container.mem st.container u then begin
          let s = Bipartition.side st.sol u in
          let cb_s, cb_o = if s = f then (cb_f, cb_t) else (cb_t, cb_f) in
          let ca_s, ca_o = if s = f then (ca_f, ca_t) else (ca_t, ca_f) in
          let delta = contrib w ca_s ca_o - contrib w cb_s cb_o in
          if delta <> 0 then begin
            st.gain.(u) <- st.gain.(u) + delta;
            Gain_container.update_key st.container u ~delta
          end
          else begin
            st.n_zero_delta <- st.n_zero_delta + 1;
            match st.config.Fm_config.update with
            | Fm_config.All_delta_gain -> Gain_container.refresh st.container u
            | Fm_config.Nonzero_only -> ()
          end
        end
      done;
      Array.unsafe_set count_f e ca_f;
      Array.unsafe_set count_t e ca_t
    end
  done;
  Bipartition.move st.sol st.h v;
  st.n_moves <- st.n_moves + 1

(* Margin to the balance window edges; larger = further from violating. *)
let balance_margin st =
  let b = st.problem.Problem.balance in
  let w0 = Bipartition.part_weight st.sol 0 in
  min (w0 - b.Balance.lower) (b.Balance.upper - w0)

(* A move is acceptable when it lands inside the balance window, or —
   balance repair, needed when the initial solution starts outside an
   asymmetric window — when it strictly reduces the violation.  [run]
   applies this to its state once, so selecting a move allocates no
   closure. *)
let legal_move st v =
  let b = st.problem.Problem.balance in
  let w0 = Bipartition.part_weight st.sol 0 in
  let w = H.vertex_weight st.h v in
  let w0' = if Bipartition.side st.sol v = 0 then w0 - w else w0 + w in
  let before = Balance.violation b ~part0_weight:w0 in
  let after = Balance.violation b ~part0_weight:w0' in
  if before = 0 then after = 0 else after < before

(* the proposed move of [side], or -1 *)
let select_side st legal side =
  let v =
    Gain_container.select st.container ~side ~legal
      ~illegal_head:st.config.Fm_config.illegal_head
  in
  if Gain_container.last_select_corked st.container then
    st.n_corking <- st.n_corking + 1;
  v

(* Cut recomputed from the (repaired) pin counts in O(E) — only needed
   when a pass saw no legal prefix at all. *)
let cut_from_counts st =
  let total = ref 0 in
  for e = 0 to H.num_edges st.h - 1 do
    if st.count0.(e) > 0 && st.count1.(e) > 0 then total := !total + ba st.ew e
  done;
  !total

(* One FM pass: move until no legal move remains, then roll back to the
   best legal prefix.  Returns the best legal cut seen (max_int when no
   prefix, including the empty one, was legal), the move count, and the
   rollback depth (moves undone).  Rollback repairs [count0/count1] and
   [cur_cut] incrementally by replaying only the undone moves — the
   next pass starts from exact counts without an O(pins) rescan. *)
let pass st legal =
  let ws = st.ws in
  ws.Fm_workspace.generation <- ws.Fm_workspace.generation + 1;
  populate st;
  st.first_pass_done <- true;
  let stack = ws.Fm_workspace.move_stack in
  let n_applied = ref 0 in
  let best_cut = ref max_int
  and best_idx = ref 0
  and best_margin = ref min_int in
  let consider idx =
    let margin = balance_margin st in
    if margin >= 0 then begin
      let better =
        match st.config.Fm_config.pass_best with
        | Fm_config.First -> st.cur_cut < !best_cut
        | Fm_config.Last -> st.cur_cut <= !best_cut
        | Fm_config.Most_balanced ->
          st.cur_cut < !best_cut
          || (st.cur_cut = !best_cut && margin > !best_margin)
      in
      if better then begin
        best_cut := st.cur_cut;
        best_idx := idx;
        best_margin := margin
      end
    end
  in
  consider 0;
  let last_from = ref (-1) in
  let continue = ref true in
  while !continue do
    let v0 = select_side st legal 0 and v1 = select_side st legal 1 in
    let v =
      if v0 < 0 then v1
      else if v1 < 0 then v0
      else
        let k0 = Gain_container.key st.container v0
        and k1 = Gain_container.key st.container v1 in
        if k0 > k1 then v0
        else if k1 > k0 then v1
        else begin
          (* equal highest gains on both sides: the §2.2 tie-break *)
          let preferred =
            match st.config.Fm_config.bias with
            | Fm_config.Part0 -> 0
            | Fm_config.Away -> if !last_from < 0 then 0 else 1 - !last_from
            | Fm_config.Toward -> if !last_from < 0 then 0 else !last_from
          in
          if preferred = 0 then v0 else v1
        end
    in
    if v < 0 then continue := false
    else begin
      last_from := Bipartition.side st.sol v;
      apply_move st v;
      stack.(!n_applied) <- v;
      incr n_applied;
      consider !n_applied
    end
  done;
  (* roll back to the best prefix (all of it if nothing legal was seen),
     repairing the pin counts move by move *)
  let undo = if !best_cut = max_int then !n_applied else !n_applied - !best_idx in
  for i = !n_applied - 1 downto !n_applied - undo do
    let v = stack.(i) in
    let cs, co =
      if Bipartition.side st.sol v = 0 then (st.count0, st.count1)
      else (st.count1, st.count0)
    in
    for j = ba st.voff v to ba st.voff (v + 1) - 1 do
      let e = ba st.vedges j in
      Array.unsafe_set cs e (Array.unsafe_get cs e - 1);
      Array.unsafe_set co e (Array.unsafe_get co e + 1)
    done;
    Bipartition.move st.sol st.h v
  done;
  if !best_cut <> max_int then st.cur_cut <- !best_cut
  else st.cur_cut <- cut_from_counts st;
  (!best_cut, !n_applied, undo)

let run ?(config = Fm_config.default) rng problem initial =
  let h = problem.Problem.hypergraph in
  let ws = Fm_workspace.acquire ~insertion:config.Fm_config.insertion ~rng h in
  let ops0 = Gain_container.ops ws.Fm_workspace.container in
  let st =
    {
      h;
      problem;
      config;
      sol = Bipartition.copy initial;
      ws;
      eoff = Csr.edge_offset h;
      epins = Csr.edge_pins h;
      voff = Csr.vertex_offset h;
      vedges = Csr.vertex_edges h;
      ew = Csr.edge_weight h;
      count0 = ws.Fm_workspace.count0;
      count1 = ws.Fm_workspace.count1;
      gain = ws.Fm_workspace.gain;
      container = ws.Fm_workspace.container;
      cur_cut = 0;
      n_moves = 0;
      n_corking = 0;
      n_zero_delta = 0;
      n_repairs = 0;
      first_pass_done = false;
    }
  in
  recompute_counts st;
  st.cur_cut <- cut_from_counts st;
  let initial_legal = Bipartition.is_legal st.sol problem.Problem.balance in
  let best = ref (if initial_legal then st.cur_cut else max_int) in
  let legal = legal_move st in
  let n_passes = ref 0 and n_empty = ref 0 in
  Trace.begin_span "fm.run";
  let improving = ref true in
  (try
     while !improving && !n_passes < config.Fm_config.max_passes do
       (* cooperative cancellation (deadlines in [hypart serve]): the
          natural safe point is the pass boundary — counts, cut and the
          solution are consistent there, and the domain's workspace is
          re-prepared by the next run either way *)
       Hypart_engine.Cancel.check ();
       Trace.begin_span "fm.pass";
       let pass_best, pass_moves, rollback = pass st legal in
       incr n_passes;
       if pass_moves = 0 then incr n_empty;
       Trace.end_span "fm.pass"
         ~args:
           [
             ("pass", float_of_int !n_passes);
             ("cut", float_of_int st.cur_cut);
             ("moves", float_of_int pass_moves);
             ("rollback", float_of_int rollback);
           ];
       if Tel.is_enabled () then begin
         Metrics.observe "fm.pass_cut" (float_of_int st.cur_cut);
         Metrics.observe "fm.rollback_depth" (float_of_int rollback)
       end;
       if Event_log.enabled () then begin
         (* flight-recorder pass boundary; request/job ids arrive via
            the recording domain's Trace context on the serving path *)
         if pass_best < !best then
           Event_log.record "run.pass_improved"
             [
               ("pass", Jsonl.Int !n_passes);
               ("cut", Jsonl.Int pass_best);
               ("moves", Jsonl.Int pass_moves);
             ];
         if rollback > 0 then
           Event_log.record "run.rolled_back"
             [
               ("pass", Jsonl.Int !n_passes);
               ("rollback", Jsonl.Int rollback);
               ("cut", Jsonl.Int st.cur_cut);
             ]
       end;
       Log.debug (fun m ->
           m "pass %d (%s): best cut %d, %d moves" !n_passes
             (Fm_config.describe config)
             (if pass_best = max_int then -1 else pass_best)
             pass_moves);
       if pass_best < !best then best := pass_best else improving := false
     done
   with Hypart_engine.Cancel.Cancelled as e ->
     (* close the run span so traces stay balanced, then let the
        cancellation propagate — the partial solution is discarded *)
     Trace.end_span "fm.run" ~args:[ ("cancelled", 1.) ];
     raise e);
  Trace.end_span "fm.run"
    ~args:
      [
        ("passes", float_of_int !n_passes);
        ("moves", float_of_int st.n_moves);
        ("cut", float_of_int st.cur_cut);
      ];
  if Tel.is_enabled () then begin
    Metrics.incr "fm.runs";
    Metrics.incr "fm.passes" ~by:!n_passes;
    Metrics.incr "fm.moves" ~by:st.n_moves;
    Metrics.incr "fm.empty_passes" ~by:!n_empty;
    Metrics.incr "fm.corking_events" ~by:st.n_corking;
    Metrics.incr "fm.zero_delta_updates" ~by:st.n_zero_delta;
    Metrics.incr "fm.incremental_repairs" ~by:st.n_repairs;
    let ops = Gain_container.ops st.container in
    Metrics.incr "gain.inserts"
      ~by:(ops.Gain_container.inserts - ops0.Gain_container.inserts);
    Metrics.incr "gain.removes"
      ~by:(ops.Gain_container.removes - ops0.Gain_container.removes);
    Metrics.incr "gain.repositions"
      ~by:(ops.Gain_container.repositions - ops0.Gain_container.repositions)
  end;
  let legal = Problem.is_legal problem st.sol in
  {
    Result.solution = st.sol;
    cut = st.cur_cut;
    legal;
    stats =
      [
        ("passes", float_of_int !n_passes);
        ("moves", float_of_int st.n_moves);
        ("empty_passes", float_of_int !n_empty);
        ("corking_events", float_of_int st.n_corking);
        ("zero_delta_updates", float_of_int st.n_zero_delta);
      ];
  }

let run_random_start ?config rng problem =
  run ?config rng problem (Initial.random rng problem)
