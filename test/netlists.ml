(* Writers for the ISPD98 .netD and UCLA Bookshelf fixtures the
   netlist reader tests decode.  No command writes these formats, so
   the writers live with the tests.  The last [num_pads] vertices
   (default 0) are pads [p<j>] after the cells [a<i>]. *)

module H = Hypart_hypergraph.Hypergraph

let vertex_name ~num_cells v =
  if v < num_cells then Printf.sprintf "a%d" v else Printf.sprintf "p%d" (v - num_cells)

let cells_of h num_pads =
  let nv = H.num_vertices h in
  if num_pads < 0 || num_pads > nv then invalid_arg "Netlists: bad pad count";
  nv - num_pads

(* [.netD]: edge and vertex weights are not representable and are
   dropped *)
let write_netd ?(num_pads = 0) path h =
  let num_cells = cells_of h num_pads in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "0\n%d\n%d\n%d\n%d\n" (H.num_pins h) (H.num_edges h)
        (H.num_vertices h) num_cells;
      for e = 0 to H.num_edges h - 1 do
        let first = ref true in
        H.iter_pins h e (fun v ->
            Printf.fprintf oc "%s %c\n" (vertex_name ~num_cells v)
              (if !first then 's' else 'l');
            first := false)
      done)

(* [basename.nodes] (areas as node widths, pads marked terminal) and
   [basename.nets] *)
let write_bookshelf ?(num_pads = 0) ~basename h =
  let num_cells = cells_of h num_pads in
  Out_channel.with_open_bin (basename ^ ".nodes") (fun oc ->
      output_string oc "UCLA nodes 1.0\n";
      Printf.fprintf oc "NumNodes : %d\n" (H.num_vertices h);
      Printf.fprintf oc "NumTerminals : %d\n" num_pads;
      for v = 0 to H.num_vertices h - 1 do
        Printf.fprintf oc "  %s %d 1%s\n" (vertex_name ~num_cells v)
          (H.vertex_weight h v)
          (if v >= num_cells then " terminal" else "")
      done);
  Out_channel.with_open_bin (basename ^ ".nets") (fun oc ->
      output_string oc "UCLA nets 1.0\n";
      Printf.fprintf oc "NumNets : %d\n" (H.num_edges h);
      Printf.fprintf oc "NumPins : %d\n" (H.num_pins h);
      for e = 0 to H.num_edges h - 1 do
        Printf.fprintf oc "NetDegree : %d  n%d\n" (H.edge_size h e) e;
        H.iter_pins h e (fun v -> Printf.fprintf oc "  %s B\n" (vertex_name ~num_cells v))
      done)
