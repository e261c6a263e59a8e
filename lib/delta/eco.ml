module H = Hypart_hypergraph.Hypergraph
module Csr = Hypart_hypergraph.Hypergraph.Csr
module Problem = Hypart_partition.Problem
module Bipartition = Hypart_partition.Bipartition
module Engine = Hypart_engine.Engine
module Machine = Hypart_engine.Machine
module Rng = Hypart_rng.Rng
module Tel = Hypart_telemetry.Control
module Metrics = Hypart_telemetry.Metrics
module Trace = Hypart_telemetry.Trace

type config = { radius : int; fallback_fraction : float; tolerance : float }

let default_config = { radius = 1; fallback_fraction = 0.25; tolerance = 0.02 }

(* The warm path walks the patched instance as flat loops over its CSR
   slices: nothing is allocated per net, per pin or per cell beyond the
   O(V + E) arrays each phase returns. *)

(* One int32 CSR element as int; the compiler unboxes the [Int32.t]. *)
let[@inline] ba (a : H.i32) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

let project (p : Patch.t) ~prior =
  if Array.length prior <> p.Patch.num_base_vertices then
    invalid_arg
      (Printf.sprintf "Eco.project: prior has %d sides, base has %d cells"
         (Array.length prior) p.Patch.num_base_vertices);
  let h = p.Patch.hypergraph in
  let nv = H.num_vertices h in
  let side = Array.make nv (-1) in
  let vertex_map = p.Patch.vertex_map in
  for old = 0 to Array.length vertex_map - 1 do
    let nw = vertex_map.(old) in
    if nw >= 0 then begin
      let s = prior.(old) in
      if s <> 0 && s <> 1 then
        invalid_arg
          (Printf.sprintf "Eco.project: prior side must be 0 or 1, got %d" s);
      side.(nw) <- s
    end
  done;
  (* place the delta-added cells: heaviest first (deterministic id
     tie-break), each on the side its placed pins pull toward unless
     that overflows the half-weight target *)
  let vw = Csr.vertex_weight h in
  let w = [| 0; 0 |] and unplaced = ref 0 in
  for v = 0 to nv - 1 do
    if side.(v) >= 0 then w.(side.(v)) <- w.(side.(v)) + ba vw v
    else incr unplaced
  done;
  let order = Array.make !unplaced 0 and n = ref 0 in
  for v = 0 to nv - 1 do
    if side.(v) < 0 then begin
      order.(!n) <- v;
      incr n
    end
  done;
  Array.sort
    (fun a b ->
      let c = compare (ba vw b) (ba vw a) in
      if c <> 0 then c else compare a b)
    order;
  let total = H.total_vertex_weight h in
  let half = (total + 1) / 2 in
  let voff = Csr.vertex_offset h and vedges = Csr.vertex_edges h in
  let eoff = Csr.edge_offset h and epins = Csr.edge_pins h in
  let ew = Csr.edge_weight h in
  for i = 0 to Array.length order - 1 do
    let v = order.(i) in
    let score0 = ref 0 and score1 = ref 0 in
    for j = ba voff v to ba voff (v + 1) - 1 do
      let e = ba vedges j in
      let we = ba ew e in
      for k = ba eoff e to ba eoff (e + 1) - 1 do
        let u = ba epins k in
        if u <> v then
          match side.(u) with
          | 0 -> score0 := !score0 + we
          | 1 -> score1 := !score1 + we
          | _ -> ()
      done
    done;
    let pref =
      if !score0 > !score1 then 0
      else if !score1 > !score0 then 1
      else if w.(0) <= w.(1) then 0
      else 1
    in
    let wv = ba vw v in
    let s =
      if w.(pref) + wv <= half || w.(pref) + wv <= w.(1 - pref) then pref
      else 1 - pref
    in
    side.(v) <- s;
    w.(s) <- w.(s) + wv
  done;
  side

(* the BFS never expands through nets above this size: one
   high-fanout net (a clock or reset) would otherwise pull its whole
   fanout — often most of the instance — into the free set in a single
   hop, and moving one cell of such a net barely changes its cut state
   anyway *)
let max_expand_net = 16

(* Breadth-first over the CSR with one int queue: [queue.(head ..
   tail-1)] is the current frontier, and each hop appends the next
   one.  Every net is expanded at most once, so the free set does not
   depend on the visiting order. *)
let localize (p : Patch.t) ~radius ~assignment =
  let h = p.Patch.hypergraph in
  let nv = H.num_vertices h in
  let free = Bytes.make nv '\000' in
  let edge_seen = Bytes.make (max (H.num_edges h) 1) '\000' in
  let queue = Array.make nv 0 and head = ref 0 and tail = ref 0 in
  let touched = p.Patch.touched in
  for i = 0 to Array.length touched - 1 do
    let v = touched.(i) in
    if Bytes.get free v = '\000' then begin
      Bytes.set free v '\001';
      queue.(!tail) <- v;
      incr tail
    end
  done;
  let voff = Csr.vertex_offset h and vedges = Csr.vertex_edges h in
  let eoff = Csr.edge_offset h and epins = Csr.edge_pins h in
  for _ = 1 to radius do
    let frontier_end = !tail in
    while !head < frontier_end do
      let v = queue.(!head) in
      incr head;
      for i = ba voff v to ba voff (v + 1) - 1 do
        let e = ba vedges i in
        if Bytes.get edge_seen e = '\000' then begin
          Bytes.set edge_seen e '\001';
          let first = ba eoff e and stop = ba eoff (e + 1) in
          if stop - first <= max_expand_net then
            for j = first to stop - 1 do
              let u = ba epins j in
              if Bytes.get free u = '\000' then begin
                Bytes.set free u '\001';
                queue.(!tail) <- u;
                incr tail
              end
            done
        end
      done
    done
  done;
  let fixed = Array.make nv (-1) in
  for v = 0 to nv - 1 do
    if Bytes.get free v = '\000' then fixed.(v) <- assignment.(v)
  done;
  fixed

module Balance = Hypart_partition.Balance

(* Legalize the projection in place: reweights and cell removals can
   push the prior past tolerance, and FM started from an illegal
   solution legalizes greedily at a large cut cost.  Move the
   least-damaging cells off the heavy side until balance holds,
   returning the moved cells so the caller can unfreeze them. *)
let rebalance h side (balance : Balance.t) =
  let nv = H.num_vertices h in
  let w0 = ref 0 in
  for v = 0 to nv - 1 do
    if side.(v) = 0 then w0 := !w0 + H.vertex_weight h v
  done;
  if Balance.is_legal balance ~part0_weight:!w0 then []
  else begin
    let heavy = if !w0 > balance.Balance.upper then 0 else 1 in
    (* cut gain of moving [v] off the heavy side: a net incident to
       [v] stops being cut if [v] was its only heavy-side pin, and
       becomes cut if all its pins were on the heavy side *)
    let gain v =
      let g = ref 0 in
      H.iter_edges h v (fun e ->
          let same = ref 0 and other = ref 0 in
          H.iter_pins h e (fun u ->
              if u <> v then
                if side.(u) = heavy then incr same else incr other);
          if !same = 0 then g := !g + H.edge_weight h e
          else if !other = 0 then g := !g - H.edge_weight h e);
      !g
    in
    let candidates = ref [] in
    for v = nv - 1 downto 0 do
      if side.(v) = heavy then candidates := (v, gain v) :: !candidates
    done;
    let order = Array.of_list !candidates in
    Array.sort
      (fun (a, ga) (b, gb) ->
        if ga <> gb then compare gb ga
        else
          let c = compare (H.vertex_weight h b) (H.vertex_weight h a) in
          if c <> 0 then c else compare a b)
      order;
    let moved = ref [] in
    let i = ref 0 in
    while
      (not (Balance.is_legal balance ~part0_weight:!w0))
      && !i < Array.length order
    do
      let v, _ = order.(!i) in
      incr i;
      let wv = H.vertex_weight h v in
      let w0' = if heavy = 0 then !w0 - wv else !w0 + wv in
      (* never overshoot across the window: skip cells too heavy to fit *)
      if
        (heavy = 0 && w0' >= balance.Balance.lower)
        || (heavy = 1 && w0' <= balance.Balance.upper)
      then begin
        side.(v) <- 1 - heavy;
        w0 := w0';
        moved := v :: !moved
      end
    done;
    !moved
  end

type mode = Warm | Scratch

type outcome = {
  result : Engine.Result.t;
  seconds : float;
  mode : mode;
  free_vertices : int;
  projected_cut : int;
}

(* the pins net [e] keeps in the subproblem: its free pins plus one per
   frozen side it touches, or 0 when it has no free pin *)
let kept_pins fixed eoff epins e =
  let free = ref 0 and f0 = ref 0 and f1 = ref 0 in
  for i = ba eoff e to ba eoff (e + 1) - 1 do
    match fixed.(ba epins i) with
    | 0 -> f0 := 1
    | 1 -> f1 := 1
    | _ -> incr free
  done;
  if !free = 0 then 0 else !free + !f0 + !f1

(* Extract the boundary subproblem: the free vertices plus two fixed
   terminal vertices standing in for the frozen sides.  Every net with
   at least one free pin survives; its frozen pins collapse into the
   matching terminal.  The terminals carry the frozen sides' full
   weight, so the subproblem's balance constraint IS the global one,
   and the engine's work scales with the free set, not the instance.

   Two passes over the CSR: the first sizes the subproblem, the second
   fills its int32 vectors.  A kept net lists its free pins in their
   original order, then [t0], then [t1]; kept nets stay in ascending
   original id, and a remnant with fewer than 2 pins (it cannot be cut)
   is dropped. *)
let extract h ~fixed ~free_vertices =
  let nv = H.num_vertices h in
  let vw = Csr.vertex_weight h in
  let to_sub = Array.make nv (-1) in
  let t0 = free_vertices and t1 = free_vertices + 1 in
  let vertex_weight =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (free_vertices + 2)
  in
  let n = ref 0 and frozen0 = ref 0 and frozen1 = ref 0 in
  for v = 0 to nv - 1 do
    match fixed.(v) with
    | 0 -> frozen0 := !frozen0 + ba vw v
    | 1 -> frozen1 := !frozen1 + ba vw v
    | _ ->
      to_sub.(v) <- !n;
      Bigarray.Array1.unsafe_set vertex_weight !n
        (Bigarray.Array1.unsafe_get vw v);
      incr n
  done;
  (* CSR vertex weights must stay positive: an empty frozen side keeps
     the placeholder weight 1 *)
  Bigarray.Array1.set vertex_weight t0 (Int32.of_int (max 1 !frozen0));
  Bigarray.Array1.set vertex_weight t1 (Int32.of_int (max 1 !frozen1));
  let eoff = Csr.edge_offset h and epins = Csr.edge_pins h in
  let ne = H.num_edges h in
  let nedges = ref 0 and npins = ref 0 in
  for e = 0 to ne - 1 do
    let k = kept_pins fixed eoff epins e in
    if k >= 2 then begin
      incr nedges;
      npins := !npins + k
    end
  done;
  let edge_offset =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (!nedges + 1)
  in
  let edge_pins = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout !npins in
  let edge_weight = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout !nedges in
  let ew = Csr.edge_weight h in
  Bigarray.Array1.set edge_offset 0 0l;
  let se = ref 0 and pos = ref 0 in
  for e = 0 to ne - 1 do
    if kept_pins fixed eoff epins e >= 2 then begin
      let f0 = ref false and f1 = ref false in
      for i = ba eoff e to ba eoff (e + 1) - 1 do
        let v = ba epins i in
        match fixed.(v) with
        | 0 -> f0 := true
        | 1 -> f1 := true
        | _ ->
          Bigarray.Array1.unsafe_set edge_pins !pos (Int32.of_int to_sub.(v));
          incr pos
      done;
      if !f0 then begin
        Bigarray.Array1.unsafe_set edge_pins !pos (Int32.of_int t0);
        incr pos
      end;
      if !f1 then begin
        Bigarray.Array1.unsafe_set edge_pins !pos (Int32.of_int t1);
        incr pos
      end;
      Bigarray.Array1.unsafe_set edge_weight !se (Bigarray.Array1.unsafe_get ew e);
      incr se;
      Bigarray.Array1.unsafe_set edge_offset !se (Int32.of_int !pos)
    end
  done;
  let sub_h =
    H.of_int32_csr ~num_vertices:(free_vertices + 2) ~edge_offset ~edge_pins
      ~vertex_weight ~edge_weight
  in
  (sub_h, to_sub, t0, t1)

let run ?(config = default_config) ~engine ~scratch ~seed ~prior
    (p : Patch.t) =
  let h = p.Patch.hypergraph in
  let nv = H.num_vertices h in
  let side = project p ~prior in
  let problem = Problem.make ~tolerance:config.tolerance h in
  let moved = rebalance h side problem.Hypart_partition.Problem.balance in
  let initial = Bipartition.make h side in
  let projected_cut = Bipartition.cut h initial in
  let touched_fraction =
    float_of_int (Array.length p.Patch.touched) /. float_of_int (max nv 1)
  in
  let scratch_run extra_seconds =
    Metrics.incr "eco.fallback_runs";
    let result, seconds =
      Machine.cpu_time (fun () ->
          Engine.run scratch (Rng.create seed) problem None)
    in
    {
      result;
      seconds = seconds +. extra_seconds;
      mode = Scratch;
      free_vertices = nv;
      projected_cut;
    }
  in
  if touched_fraction > config.fallback_fraction then scratch_run 0.
  else begin
    let fixed, free_vertices =
      Trace.span "eco.localize" (fun () ->
          let fixed = localize p ~radius:config.radius ~assignment:side in
          (* cells the rebalance displaced sit at fresh positions:
             unfreeze them so refinement can settle them properly *)
          List.iter (fun v -> fixed.(v) <- -1) moved;
          let free = ref 0 in
          for v = 0 to nv - 1 do
            if fixed.(v) < 0 then incr free
          done;
          (fixed, !free))
    in
    if Tel.is_enabled () then
      Metrics.set_gauge "eco.free_fraction"
        (float_of_int free_vertices /. float_of_int (max nv 1));
    if free_vertices = 0 then begin
      (* nothing to refine: the projection is the warm answer *)
      Metrics.incr "eco.warm_runs";
      {
        result =
          {
            Engine.Result.solution = initial;
            cut = projected_cut;
            legal = Problem.is_legal problem initial;
            stats = [];
          };
        seconds = 0.;
        mode = Warm;
        free_vertices;
        projected_cut;
      }
    end
    else begin
      let (result : Engine.Result.t), seconds =
        Machine.cpu_time (fun () ->
            let sub_problem, sub_initial, to_sub =
              Trace.span "eco.extract" (fun () ->
                  let sub_h, to_sub, t0, t1 = extract h ~fixed ~free_vertices in
                  let sub_fixed = Array.make (free_vertices + 2) (-1) in
                  sub_fixed.(t0) <- 0;
                  sub_fixed.(t1) <- 1;
                  let sub_side = Array.make (free_vertices + 2) 0 in
                  for v = 0 to nv - 1 do
                    if to_sub.(v) >= 0 then sub_side.(to_sub.(v)) <- side.(v)
                  done;
                  sub_side.(t1) <- 1;
                  ( Problem.make ~fixed:sub_fixed ~tolerance:config.tolerance sub_h,
                    Bipartition.make sub_h sub_side,
                    to_sub ))
            in
            let sub_result =
              Trace.span "eco.refine" (fun () ->
                  Engine.run engine (Rng.create seed) sub_problem
                    (Some sub_initial))
            in
            (* splice the refined region back into the projection *)
            Trace.span "eco.splice" (fun () ->
                let sub_solution = sub_result.Engine.Result.solution in
                let final = Array.copy side in
                for v = 0 to nv - 1 do
                  if to_sub.(v) >= 0 then
                    final.(v) <- Bipartition.side sub_solution to_sub.(v)
                done;
                let solution = Bipartition.make h final in
                {
                  Engine.Result.solution;
                  cut = Bipartition.cut h solution;
                  legal = Problem.is_legal problem solution;
                  stats = sub_result.Engine.Result.stats;
                }))
      in
      if not result.Engine.Result.legal then
        (* a delta can move enough weight that no legal solution keeps
           the frozen sides — rerun unrestricted from scratch *)
        scratch_run seconds
      else begin
        Metrics.incr "eco.warm_runs";
        { result; seconds; mode = Warm; free_vertices; projected_cut }
      end
    end
  end
