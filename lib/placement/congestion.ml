module H = Hypart_hypergraph.Hypergraph

type t = { bins : int; demand : float array array }

let rudy ?(bins = 16) h pl =
  if bins < 1 then invalid_arg "Congestion.rudy: bins must be >= 1";
  let demand = Array.make_matrix bins bins 0.0 in
  let bw = pl.Topdown.width /. float_of_int bins in
  let bh = pl.Topdown.height /. float_of_int bins in
  if bw > 0.0 && bh > 0.0 then
    for e = 0 to H.num_edges h - 1 do
      if H.edge_size h e >= 2 then begin
        let { Topdown.x0 = min_x; x1 = max_x; y0 = min_y; y1 = max_y } as box =
          Topdown.net_box h pl e
        in
        let net_demand =
          float_of_int (H.edge_weight h e) *. Topdown.half_perimeter box
        in
        if net_demand > 0.0 then begin
          (* spread uniformly over the bounding box, proportionally to
             each bin's overlap with it *)
          let area = (max_x -. min_x) *. (max_y -. min_y) in
          let clamp b = max 0 (min (bins - 1) b) in
          let bx0 = clamp (int_of_float (min_x /. bw)) in
          let bx1 = clamp (int_of_float (max_x /. bw)) in
          let by0 = clamp (int_of_float (min_y /. bh)) in
          let by1 = clamp (int_of_float (max_y /. bh)) in
          if area = 0.0 then begin
            (* degenerate (collinear) box: put everything in its bins
               uniformly *)
            let nbins = (bx1 - bx0 + 1) * (by1 - by0 + 1) in
            let share = net_demand /. float_of_int nbins in
            for by = by0 to by1 do
              for bx = bx0 to bx1 do
                demand.(by).(bx) <- demand.(by).(bx) +. share
              done
            done
          end
          else begin
            let density = net_demand /. area in
            for by = by0 to by1 do
              for bx = bx0 to bx1 do
                let cell_x0 = float_of_int bx *. bw in
                let cell_y0 = float_of_int by *. bh in
                let ox =
                  Float.max 0.0
                    (Float.min (cell_x0 +. bw) max_x -. Float.max cell_x0 min_x)
                in
                let oy =
                  Float.max 0.0
                    (Float.min (cell_y0 +. bh) max_y -. Float.max cell_y0 min_y)
                in
                demand.(by).(bx) <- demand.(by).(bx) +. (density *. ox *. oy)
              done
            done
          end
        end
      end
    done;
  { bins; demand }

let peak t =
  Array.fold_left
    (fun acc row -> Array.fold_left Float.max acc row)
    0.0 t.demand

let average t =
  let sum =
    Array.fold_left
      (fun acc row -> Array.fold_left ( +. ) acc row)
      0.0 t.demand
  in
  sum /. float_of_int (t.bins * t.bins)
