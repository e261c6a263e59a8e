module H = Hypart_hypergraph.Hypergraph
module A1 = Bigarray.Array1

type stats = {
  nets_added : int;
  nets_removed : int;
  cells_added : int;
  cells_removed : int;
  cells_reweighted : int;
  pins_touched : int;
}

type t = {
  hypergraph : H.t;
  vertex_map : int array;
  num_base_vertices : int;
  added_cells : int array;
  touched : int array;
  base_fingerprint : string;
  fingerprint : string;
  stats : stats;
}

exception Apply_error of string

let apply_error path line fmt =
  Printf.ksprintf
    (fun msg -> raise (Apply_error (Printf.sprintf "%s:%d: %s" path line msg)))
    fmt

module Buf32 = Hypart_hypergraph.Buf32

let apply ~base ~base_fingerprint (d : Delta.t) =
  let path = d.Delta.source in
  (match d.Delta.base with
  | Some (fp, line) when fp <> base_fingerprint ->
    apply_error path line
      "delta targets base %s but the instance fingerprint is %s" fp
      base_fingerprint
  | _ -> ());
  let nv = H.num_vertices base and ne = H.num_edges base in
  let cells_added =
    Array.fold_left
      (fun n (_, op) ->
        match op with Delta.Add_cell _ -> n + 1 | _ -> n)
      0 d.Delta.ops
  in
  let total_v = nv + cells_added in
  let weight = Array.make total_v 1 in
  for v = 0 to nv - 1 do
    weight.(v) <- H.vertex_weight base v
  done;
  let removed_v = Bytes.make total_v '\000' in
  let removed_e = Bytes.make (max ne 1) '\000' in
  let touched = Bytes.make total_v '\000' in
  let cells_removed = ref 0
  and cells_reweighted = ref 0
  and nets_removed = ref 0
  and nets_added = ref 0
  and pins_touched = ref 0 in
  (* first pass: id-space placement, removals and weights.  Removals
     apply to the delta as a whole, so addnet pins are validated
     against them in a second pass regardless of op order. *)
  let next_added = ref nv in
  Array.iter
    (fun (line, op) ->
      match op with
      | Delta.Add_cell w ->
        weight.(!next_added) <- w;
        Bytes.set touched !next_added '\001';
        incr next_added
      | Delta.Remove_cell c ->
        if c >= total_v then
          apply_error path line "removal of unknown cell %d" (c + 1);
        Bytes.set removed_v c '\001';
        incr cells_removed
      | Delta.Reweight_cell (c, _) ->
        if c >= total_v then
          apply_error path line "reweight of unknown cell %d" (c + 1)
      | Delta.Remove_net e ->
        if e >= ne then
          apply_error path line "removal of unknown net %d" (e + 1);
        Bytes.set removed_e e '\001';
        incr nets_removed
      | Delta.Add_net _ -> ())
    d.Delta.ops;
  (* second pass: checks that need the full removal sets *)
  let added_pins = ref 0 in
  Array.iter
    (fun (line, op) ->
      match op with
      | Delta.Reweight_cell (c, w) ->
        if Bytes.get removed_v c = '\001' then
          apply_error path line "reweight of removed cell %d" (c + 1);
        weight.(c) <- w;
        Bytes.set touched c '\001';
        incr cells_reweighted
      | Delta.Add_net (_, pins) ->
        added_pins := !added_pins + Array.length pins;
        incr nets_added;
        Array.iter
          (fun p ->
            if p >= total_v then
              apply_error path line "pin %d of added net out of range" (p + 1);
            if Bytes.get removed_v p = '\001' then
              apply_error path line
                "pin %d of added net refers to a removed cell" (p + 1))
          pins
      | _ -> ())
    d.Delta.ops;
  (* compact the id space *)
  let new_id = Array.make total_v (-1) in
  let nv' = ref 0 in
  for v = 0 to total_v - 1 do
    if Bytes.get removed_v v = '\000' then begin
      new_id.(v) <- !nv';
      incr nv'
    end
  done;
  let nv' = !nv' in
  if nv' = 0 then raise (Apply_error (path ^ ": delta removes every cell"));
  let base_cells_removed =
    let n = ref 0 in
    for v = 0 to nv - 1 do
      if Bytes.get removed_v v = '\001' then incr n
    done;
    !n
  in
  (* one sweep over the base CSR.  With no base cell removed the id map
     is the identity on base cells (added cells only append), so kept
     pin slices blit wholesale; otherwise each kept net remaps per pin
     (compaction shifts ids) and nets that lost pins are rewritten. *)
  let csr_pins = H.Csr.edge_pins base and csr_off = H.Csr.edge_offset base in
  (* sized for every base pin and net plus the added ones, so the
     buffers never double and, with nothing removed, come out exact *)
  let pins = Buf32.create (H.num_pins base + !added_pins) in
  let offsets = Buf32.create (ne + !nets_added + 1) in
  let eweights = Buf32.create (ne + !nets_added) in
  Buf32.push offsets 0;
  let identity = base_cells_removed = 0 in
  let kept_pins = ref [||] in
  for e = 0 to ne - 1 do
    let off = Int32.to_int (A1.unsafe_get csr_off e) in
    let size = Int32.to_int (A1.unsafe_get csr_off (e + 1)) - off in
    if Bytes.get removed_e e = '\001' then begin
      (* the net vanishes; its former pins are boundary candidates *)
      pins_touched := !pins_touched + size;
      for i = off to off + size - 1 do
        let v = Int32.to_int (A1.unsafe_get csr_pins i) in
        if Bytes.get removed_v v = '\000' then Bytes.set touched v '\001'
      done
    end
    else if identity then begin
      Buf32.blit pins csr_pins off size;
      Buf32.push offsets (Buf32.length pins);
      Buf32.push eweights (H.edge_weight base e)
    end
    else begin
      (* the survivors gather in [kept_pins] and join [pins] in one
         call per net, not one per pin *)
      if size > Array.length !kept_pins then kept_pins := Array.make size 0;
      let kept = ref 0 in
      for i = off to off + size - 1 do
        let v = Int32.to_int (A1.unsafe_get csr_pins i) in
        if Bytes.get removed_v v = '\000' then begin
          Array.unsafe_set !kept_pins !kept new_id.(v);
          incr kept
        end
      done;
      let kept = !kept in
      if kept < size then begin
        (* the net lost pins to a cell removal: its survivors are
           boundary candidates, and a net reduced below 2 pins drops
           entirely (the induce/contract convention) *)
        pins_touched := !pins_touched + size;
        for i = off to off + size - 1 do
          let v = Int32.to_int (A1.unsafe_get csr_pins i) in
          if Bytes.get removed_v v = '\000' then Bytes.set touched v '\001'
        done
      end;
      if kept < 2 then incr nets_removed
      else begin
        Buf32.push_ints pins !kept_pins kept;
        Buf32.push offsets (Buf32.length pins);
        Buf32.push eweights (H.edge_weight base e)
      end
    end
  done;
  Array.iter
    (fun (_, op) ->
      match op with
      | Delta.Add_net (w, net_pins) ->
        Array.iter
          (fun p ->
            Bytes.set touched p '\001';
            Buf32.push pins new_id.(p))
          net_pins;
        pins_touched := !pins_touched + Array.length net_pins;
        Buf32.push offsets (Buf32.length pins);
        Buf32.push eweights w
      | _ -> ())
    d.Delta.ops;
  let ne' = Buf32.length eweights in
  let vertex_weight = A1.create Bigarray.Int32 Bigarray.c_layout nv' in
  for v = 0 to total_v - 1 do
    if new_id.(v) >= 0 then
      A1.set vertex_weight new_id.(v) (Int32.of_int weight.(v))
  done;
  let edge_offset =
    (* the offsets buffer holds ne'+1 entries exactly *)
    Buf32.contents offsets
  in
  let hypergraph =
    H.of_int32_csr ~num_vertices:nv' ~edge_offset
      ~edge_pins:(Buf32.contents pins) ~vertex_weight
      ~edge_weight:(Buf32.contents eweights)
  in
  assert (A1.dim edge_offset = ne' + 1);
  let vertex_map = Array.sub new_id 0 nv in
  let added_cells = Array.sub new_id nv cells_added in
  let touched_list = ref [] in
  for v = total_v - 1 downto 0 do
    if Bytes.get touched v = '\001' && new_id.(v) >= 0 then
      touched_list := new_id.(v) :: !touched_list
  done;
  {
    hypergraph;
    vertex_map;
    num_base_vertices = nv;
    added_cells;
    touched = Array.of_list !touched_list;
    base_fingerprint;
    fingerprint = Delta.chain_fingerprint ~base:base_fingerprint d;
    stats =
      {
        nets_added = !nets_added;
        nets_removed = !nets_removed;
        cells_added;
        cells_removed = !cells_removed;
        cells_reweighted = !cells_reweighted;
        pins_touched = !pins_touched;
      };
  }
