module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng

type rows = { num_rows : int; row_height : float; row_of : int array }
type legalized = { placement : Topdown.placement; rows : rows }

type anneal_stats = {
  initial_hpwl : float;
  final_hpwl : float;
  accepted : int;
  attempted : int;
}

let legalize ?num_rows h pl =
  let n = H.num_vertices h in
  if n = 0 then
    {
      placement = pl;
      rows = { num_rows = 0; row_height = 0.0; row_of = [||] };
    }
  else begin
    let num_rows =
      match num_rows with
      | Some r ->
        if r < 1 then invalid_arg "Detailed.legalize: num_rows must be >= 1";
        min r n
      | None -> max 1 (int_of_float (sqrt (float_of_int n)))
    in
    let row_height = pl.Topdown.height /. float_of_int num_rows in
    (* distribute cells over rows by y-order, equal count per row *)
    let by_y = Array.init n (fun v -> v) in
    Array.sort
      (fun a b -> compare (pl.Topdown.y.(a), a) (pl.Topdown.y.(b), b))
      by_y;
    let row_of = Array.make n 0 in
    (* proportional assignment keeps row populations within one cell *)
    Array.iteri (fun i v -> row_of.(v) <- i * num_rows / n) by_y;
    (* pack each row into uniformly pitched slots, preserving x-order *)
    let x = Array.make n 0.0 and y = Array.make n 0.0 in
    for r = 0 to num_rows - 1 do
      let members =
        Array.of_list
          (List.filter (fun v -> row_of.(v) = r) (Array.to_list by_y))
      in
      Array.sort
        (fun a b -> compare (pl.Topdown.x.(a), a) (pl.Topdown.x.(b), b))
        members;
      let k = Array.length members in
      let pitch = pl.Topdown.width /. float_of_int (max 1 k) in
      Array.iteri
        (fun s v ->
          x.(v) <- (float_of_int s +. 0.5) *. pitch;
          y.(v) <- (float_of_int r +. 0.5) *. row_height)
        members
    done;
    {
      placement =
        { Topdown.x; y; width = pl.Topdown.width; height = pl.Topdown.height };
      rows = { num_rows; row_height; row_of };
    }
  end

(* HPWL of the nets incident to [v] (and optionally [u]), used for swap
   deltas without rescanning the whole netlist.  Nets shared by both
   cells are counted once via a stamp. *)
let local_hpwl h pl ~stamp ~serial vs =
  let total = ref 0.0 in
  List.iter
    (fun v ->
      H.iter_edges h v (fun e ->
          if stamp.(e) <> serial then begin
            stamp.(e) <- serial;
            if H.edge_size h e >= 2 then
              total :=
                !total
                +. (float_of_int (H.edge_weight h e)
                    *. Topdown.half_perimeter (Topdown.net_box h pl e))
          end))
    vs;
  !total

let swap_coords pl rows a b =
  let tx = pl.Topdown.x.(a) and ty = pl.Topdown.y.(a) in
  pl.Topdown.x.(a) <- pl.Topdown.x.(b);
  pl.Topdown.y.(a) <- pl.Topdown.y.(b);
  pl.Topdown.x.(b) <- tx;
  pl.Topdown.y.(b) <- ty;
  let tr = rows.row_of.(a) in
  rows.row_of.(a) <- rows.row_of.(b);
  rows.row_of.(b) <- tr

(* the starting temperature accepts an average swap with this
   probability; each temperature step multiplies it by [cooling] *)
let initial_acceptance = 0.5
let cooling = 0.95

let anneal ?(moves_per_cell = 50) rng h legalized =
  let n = H.num_vertices h in
  let pl =
    {
      Topdown.x = Array.copy legalized.placement.Topdown.x;
      y = Array.copy legalized.placement.Topdown.y;
      width = legalized.placement.Topdown.width;
      height = legalized.placement.Topdown.height;
    }
  in
  let rows = { legalized.rows with row_of = Array.copy legalized.rows.row_of } in
  let stats_zero = { initial_hpwl = 0.; final_hpwl = 0.; accepted = 0; attempted = 0 } in
  if n < 2 then ({ placement = pl; rows }, stats_zero)
  else begin
    let stamp = Array.make (max 1 (H.num_edges h)) (-1) in
    let serial = ref 0 in
    let delta_of_swap a b =
      incr serial;
      let before = local_hpwl h pl ~stamp ~serial:!serial [ a; b ] in
      swap_coords pl rows a b;
      incr serial;
      let after = local_hpwl h pl ~stamp ~serial:!serial [ a; b ] in
      swap_coords pl rows a b;
      after -. before
    in
    (* starting temperature from sampled deltas *)
    let sample = min 200 (10 * n) in
    let sum = ref 0.0 in
    for _ = 1 to sample do
      let a = Rng.int rng n and b = Rng.int rng n in
      if a <> b then sum := !sum +. Float.abs (delta_of_swap a b)
    done;
    let avg_delta = Float.max 1e-9 (!sum /. float_of_int sample) in
    let t0 = -.avg_delta /. Float.log initial_acceptance in
    let initial_hpwl = Topdown.hpwl h pl in
    let cur = ref initial_hpwl and best = ref initial_hpwl in
    let best_x = ref (Array.copy pl.Topdown.x)
    and best_y = ref (Array.copy pl.Topdown.y)
    and best_rows = ref (Array.copy rows.row_of) in
    let total_moves = moves_per_cell * n in
    (* cool until T ~ 1e-4 T0 so the schedule ends effectively greedy *)
    let levels =
      max 1 (int_of_float (Float.ceil (Float.log 1e-4 /. Float.log cooling)))
    in
    let per_level = max 1 (total_moves / levels) in
    let accepted = ref 0 and attempted = ref 0 in
    let temp = ref t0 in
    for _ = 1 to levels do
      for _ = 1 to per_level do
        let a = Rng.int rng n and b = Rng.int rng n in
        if a <> b then begin
          incr attempted;
          let delta = delta_of_swap a b in
          let accept =
            delta <= 0.0
            || Rng.float rng 1.0 < Float.exp (-.delta /. !temp)
          in
          if accept then begin
            swap_coords pl rows a b;
            incr accepted;
            cur := !cur +. delta;
            if !cur < !best then begin
              best := !cur;
              best_x := Array.copy pl.Topdown.x;
              best_y := Array.copy pl.Topdown.y;
              best_rows := Array.copy rows.row_of
            end
          end
        end
      done;
      temp := !temp *. cooling
    done;
    let placement =
      { Topdown.x = !best_x; y = !best_y; width = pl.Topdown.width;
        height = pl.Topdown.height }
    in
    let final_hpwl = Topdown.hpwl h placement in
    ( { placement; rows = { rows with row_of = !best_rows } },
      { initial_hpwl; final_hpwl; accepted = !accepted; attempted = !attempted }
    )
  end
