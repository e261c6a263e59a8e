module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Engine = Hypart_engine.Engine
module Cancel = Hypart_engine.Cancel

let max_passes = 20

let run _rng problem initial =
  let h = problem.Problem.hypergraph in
  let n = H.num_vertices h in
  let side = Bipartition.assignment initial in
  let n0 = Array.fold_left (fun acc s -> if s = 0 then acc + 1 else acc) 0 side in
  if abs ((2 * n0) - n) > 1 then
    invalid_arg "Kl.run: initial solution must be an equal-cardinality bisection";
  let adj = Hypart_hypergraph.Clique_expansion.adjacency h in
  let c a b =
    (* connection weight between a and b *)
    List.fold_left (fun acc (u, w) -> if u = b then acc +. w else acc) 0.0 adj.(a)
  in
  (* D(v) = external - internal clique cost *)
  let d = Array.make n 0.0 in
  let compute_d () =
    for v = 0 to n - 1 do
      d.(v) <-
        List.fold_left
          (fun acc (u, w) -> if side.(u) <> side.(v) then acc +. w else acc -. w)
          0.0 adj.(v)
    done
  in
  (* a fixed vertex starts every pass locked, so it is never swapped *)
  let fixed = problem.Problem.fixed in
  let locked = Array.make n false in
  let total_swaps = ref 0 in
  let passes = ref 0 in
  let improving = ref true in
  while !improving && !passes < max_passes do
    Cancel.check ();
    incr passes;
    Array.iteri (fun v f -> locked.(v) <- f >= 0) fixed;
    compute_d ();
    (* tentative swap sequence *)
    let seq = ref [] and gains = ref [] in
    let continue = ref true in
    while !continue do
      (* best unlocked pair (a in P0, b in P1) maximizing
         D(a) + D(b) - 2 c(a,b) *)
      let best = ref None in
      for a = 0 to n - 1 do
        (* one poll per row: a row is O(n . deg) clique lookups *)
        Cancel.check ();
        if (not locked.(a)) && side.(a) = 0 then
          for b = 0 to n - 1 do
            if (not locked.(b)) && side.(b) = 1 then begin
              let g = d.(a) +. d.(b) -. (2.0 *. c a b) in
              match !best with
              | Some (_, _, bg) when bg >= g -> ()
              | _ -> best := Some (a, b, g)
            end
          done
      done;
      match !best with
      | None -> continue := false
      | Some (a, b, g) ->
        locked.(a) <- true;
        locked.(b) <- true;
        side.(a) <- 1;
        side.(b) <- 0;
        incr total_swaps;
        (* update D for unlocked vertices *)
        List.iter
          (fun (u, w) ->
            if not locked.(u) then
              d.(u) <- (if side.(u) = 1 then d.(u) -. (2.0 *. w) else d.(u) +. (2.0 *. w)))
          adj.(a);
        List.iter
          (fun (u, w) ->
            if not locked.(u) then
              d.(u) <- (if side.(u) = 0 then d.(u) -. (2.0 *. w) else d.(u) +. (2.0 *. w)))
          adj.(b);
        seq := (a, b) :: !seq;
        gains := g :: !gains
    done;
    (* best prefix by cumulative gain *)
    let gains = Array.of_list (List.rev !gains) in
    let best_k = ref 0 and cum = ref 0.0 and best_cum = ref 0.0 in
    Array.iteri
      (fun i g ->
        cum := !cum +. g;
        if !cum > !best_cum +. 1e-9 then begin
          best_cum := !cum;
          best_k := i + 1
        end)
      gains;
    let best_k = !best_k in
    (* roll back swaps after the best prefix *)
    let seq = Array.of_list (List.rev !seq) in
    for i = Array.length seq - 1 downto best_k do
      let a, b = seq.(i) in
      side.(a) <- 0;
      side.(b) <- 1
    done;
    if best_k = 0 then improving := false
  done;
  let solution = Bipartition.make h side in
  {
    Engine.Result.solution;
    cut = Bipartition.cut h solution;
    legal = Problem.is_legal problem solution;
    stats =
      [ ("passes", float_of_int !passes); ("swaps", float_of_int !total_swaps) ];
  }

let run_random_start rng problem =
  let h = problem.Problem.hypergraph in
  let n = H.num_vertices h in
  let fixed = problem.Problem.fixed in
  let perm = Rng.permutation rng n in
  (* fixed vertices on their sides; free ones in [perm] order fill side
     0 up to n/2, the rest go to side 1 *)
  let side = Array.map (fun f -> if f = 0 then 0 else 1) fixed in
  let n0 = ref (Array.fold_left (fun acc f -> if f = 0 then acc + 1 else acc) 0 fixed) in
  Array.iter
    (fun v ->
      if fixed.(v) < 0 && !n0 < n / 2 then begin
        side.(v) <- 0;
        incr n0
      end)
    perm;
  run rng problem (Bipartition.make h side)

let engine =
  Engine.make ~name:"kl"
    ~description:
      "Kernighan-Lin pair swaps on the clique expansion (equal-cardinality \
       bisection, O(n^2) historical baseline)"
    (fun rng problem -> function
      | Some s -> run rng problem s
      | None -> run_random_start rng problem)
