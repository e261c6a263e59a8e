(* CSR storage lives in (int32, c_layout) Bigarray-1 vectors: half the
   footprint of boxed int arrays at million-vertex scale, contiguous and
   GC-opaque (no marking cost), and the exact on-disk representation of
   the binary instance format — Instance_store maps a packed file and
   wraps these views with zero copies. *)

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let i32_create n : i32 = Bigarray.Array1.create Bigarray.Int32 Bigarray.c_layout n

let i32_of_array a =
  let n = Array.length a in
  let b = i32_create n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b i (Int32.of_int (Array.unsafe_get a i))
  done;
  b

(* unchecked element access for internal loops whose indices are known
   in range; public accessors bounds-check through Array1.get *)
let[@inline] ug (a : i32) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
let[@inline] get (a : i32) i = Int32.to_int (Bigarray.Array1.get a i)
let[@inline] dim (a : i32) = Bigarray.Array1.dim a

(* The vertex -> edges CSR, built from the edge CSR on first use: a
   cold request answered from the lab cache, or an instance that is only
   fingerprinted and cached, never reads it. *)
type vertex_csr = {
  vertex_offset : i32; (* length num_vertices + 1 *)
  vertex_edges : i32;
  max_vertex_degree : int;
}

type t = {
  num_vertices : int;
  num_edges : int;
  edge_offset : i32;   (* length num_edges + 1 *)
  edge_pins : i32;     (* pins of edge e at [edge_offset.(e), edge_offset.(e+1)) *)
  vertex_weight : i32;
  edge_weight : i32;
  total_vertex_weight : int;
  max_vertex_weight : int;
  vertex : vertex_csr option Atomic.t;
      (* [None] until first read; shared by [reweight_edges] copies,
         whose vertex CSR is the same *)
}

let max_degree vertex_offset num_vertices =
  let max_d = ref 0 in
  for v = 0 to num_vertices - 1 do
    let d = ug vertex_offset (v + 1) - ug vertex_offset v in
    if d > !max_d then max_d := d
  done;
  !max_d

(* Build the vertex -> edges CSR from the edge -> pins CSR by counting
   sort.  The counting happens in [vertex_offset] itself: slot [v + 1]
   holds the degree of [v], then the start of [v] (a fill cursor), and
   after the fill the end of [v] — so no O(V) scratch array is
   allocated. *)
let transpose ~num_vertices ~edge_offset ~edge_pins =
  let num_edges = dim edge_offset - 1 in
  let num_pins = dim edge_pins in
  let vertex_offset = i32_create (num_vertices + 1) in
  Bigarray.Array1.fill vertex_offset 0l;
  let bump v =
    Bigarray.Array1.unsafe_set vertex_offset (v + 1)
      (Int32.of_int (ug vertex_offset (v + 1) + 1))
  in
  for i = 0 to num_pins - 1 do
    bump (ug edge_pins i)
  done;
  let start = ref 0 in
  for v = 0 to num_vertices - 1 do
    let d = ug vertex_offset (v + 1) in
    Bigarray.Array1.unsafe_set vertex_offset (v + 1) (Int32.of_int !start);
    start := !start + d
  done;
  let vertex_edges = i32_create num_pins in
  for e = 0 to num_edges - 1 do
    for i = ug edge_offset e to ug edge_offset (e + 1) - 1 do
      let v = ug edge_pins i in
      Bigarray.Array1.unsafe_set vertex_edges (ug vertex_offset (v + 1))
        (Int32.of_int e);
      bump v
    done
  done;
  (vertex_offset, vertex_edges)

(* The first reader builds the vertex CSR and publishes it with one
   compare-and-set.  Domains that race each build a copy from the same
   edge CSR; the first to publish wins and the others adopt its copy,
   so every reader sees physically the same arrays. *)
let vertex_csr h =
  match Atomic.get h.vertex with
  | Some v -> v
  | None ->
    let vertex_offset, vertex_edges =
      transpose ~num_vertices:h.num_vertices ~edge_offset:h.edge_offset
        ~edge_pins:h.edge_pins
    in
    let built =
      Some
        {
          vertex_offset;
          vertex_edges;
          max_vertex_degree = max_degree vertex_offset h.num_vertices;
        }
    in
    ignore (Atomic.compare_and_set h.vertex None built);
    Option.get (Atomic.get h.vertex)

let num_vertices h = h.num_vertices
let num_edges h = h.num_edges
let num_pins h = dim h.edge_pins
let edge_size h e = get h.edge_offset (e + 1) - get h.edge_offset e
let vertex_degree h v =
  let vo = (vertex_csr h).vertex_offset in
  get vo (v + 1) - get vo v
let vertex_weight h v = get h.vertex_weight v
let edge_weight h e = get h.edge_weight e
let total_vertex_weight h = h.total_vertex_weight
let max_vertex_degree h = (vertex_csr h).max_vertex_degree

let iter_pins h e f =
  for i = get h.edge_offset e to get h.edge_offset (e + 1) - 1 do
    f (ug h.edge_pins i)
  done

let iter_edges h v f =
  let { vertex_offset; vertex_edges; _ } = vertex_csr h in
  for i = get vertex_offset v to get vertex_offset (v + 1) - 1 do
    f (ug vertex_edges i)
  done

let fold_pins h e ~init ~f =
  let acc = ref init in
  iter_pins h e (fun v -> acc := f !acc v);
  !acc

let fold_edges h v ~init ~f =
  let acc = ref init in
  iter_edges h v (fun e -> acc := f !acc e);
  !acc

(* Zero-copy access to the underlying CSR vectors for flat index loops
   in engine hot paths.  The vectors are the hypergraph's own storage:
   callers must treat them as read-only. *)
module Csr = struct
  let edge_offset h = h.edge_offset
  let edge_pins h = h.edge_pins
  let vertex_offset h = (vertex_csr h).vertex_offset
  let vertex_edges h = (vertex_csr h).vertex_edges
  let vertex_weight h = h.vertex_weight
  let edge_weight h = h.edge_weight
end

(* the vertex CSR counts whether it is built yet or not: its size is
   fixed by the edge CSR, and the instance cache's accounting must not
   move when an engine first reads it *)
let memory_bytes h =
  4
  * (dim h.edge_offset + (2 * dim h.edge_pins) + (h.num_vertices + 1)
    + dim h.vertex_weight + dim h.edge_weight)

(* Derived statistics shared by every construction path; [vertex] is
   the vertex CSR when it arrives built (a mapped instance). *)
let finish ?vertex ~num_vertices ~num_edges ~edge_offset ~edge_pins
    ~vertex_weight ~edge_weight () =
  let total = ref 0 and max_w = ref 0 in
  for v = 0 to num_vertices - 1 do
    let w = ug vertex_weight v in
    total := !total + w;
    if w > !max_w then max_w := w
  done;
  {
    num_vertices;
    num_edges;
    edge_offset;
    edge_pins;
    vertex_weight;
    edge_weight;
    total_vertex_weight = !total;
    max_vertex_weight = !max_w;
    vertex = Atomic.make vertex;
  }

let of_int32_csr_unchecked ~num_vertices ~edge_offset ~edge_pins ~vertex_weight
    ~edge_weight =
  finish ~num_vertices ~num_edges:(dim edge_offset - 1) ~edge_offset ~edge_pins
    ~vertex_weight ~edge_weight ()

(* int-array entry point kept for the in-memory constructors below *)
let of_csr ~num_vertices ~edge_offset ~edge_pins ~vertex_weight ~edge_weight =
  of_int32_csr_unchecked ~num_vertices
    ~edge_offset:(i32_of_array edge_offset)
    ~edge_pins:(i32_of_array edge_pins)
    ~vertex_weight:(i32_of_array vertex_weight)
    ~edge_weight:(i32_of_array edge_weight)

(* Validation for externally supplied CSR (binary loader, delta patches,
   ECO subproblems): cheap linear scans, located errors via
   Invalid_argument. *)
let validate_csr ~what ~num_vertices ~edge_offset ~edge_pins ~vertex_weight
    ~edge_weight =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let num_edges = dim edge_offset - 1 in
  if num_vertices < 0 then fail "%s: negative vertex count" what;
  if num_edges < 0 then fail "%s: empty edge_offset" what;
  if dim vertex_weight <> num_vertices then
    fail "%s: vertex_weight length mismatch" what;
  if dim edge_weight <> num_edges then fail "%s: edge_weight length mismatch" what;
  if get edge_offset 0 <> 0 then fail "%s: edge_offset must start at 0" what;
  for e = 0 to num_edges - 1 do
    if ug edge_offset (e + 1) < ug edge_offset e then
      fail "%s: edge_offset not monotone at edge %d" what e
  done;
  if get edge_offset num_edges <> dim edge_pins then
    fail "%s: edge_offset end %d does not match %d pins" what
      (get edge_offset num_edges) (dim edge_pins);
  (* pins in range and distinct within each edge (FM pin counting and
     contraction both assume a vertex appears at most once per net) *)
  let mark = Array.make (max num_vertices 1) (-1) in
  for e = 0 to num_edges - 1 do
    for i = ug edge_offset e to ug edge_offset (e + 1) - 1 do
      let v = ug edge_pins i in
      if v < 0 || v >= num_vertices then
        fail "%s: pin %d of edge %d out of range" what v e;
      if mark.(v) = e then fail "%s: duplicate pin %d in edge %d" what v e;
      mark.(v) <- e
    done
  done;
  for v = 0 to num_vertices - 1 do
    if ug vertex_weight v <= 0 then
      fail "%s: non-positive weight of vertex %d" what v
  done;
  for e = 0 to num_edges - 1 do
    if ug edge_weight e <= 0 then fail "%s: non-positive weight of edge %d" what e
  done

let of_int32_csr ~num_vertices ~edge_offset ~edge_pins ~vertex_weight
    ~edge_weight =
  validate_csr ~what:"Hypergraph.of_int32_csr" ~num_vertices ~edge_offset
    ~edge_pins ~vertex_weight ~edge_weight;
  of_int32_csr_unchecked ~num_vertices ~edge_offset ~edge_pins ~vertex_weight
    ~edge_weight

let of_mapped_csr ~num_vertices ~edge_offset ~edge_pins ~vertex_offset
    ~vertex_edges ~vertex_weight ~edge_weight =
  validate_csr ~what:"Hypergraph.of_mapped_csr" ~num_vertices ~edge_offset
    ~edge_pins ~vertex_weight ~edge_weight;
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let what = "Hypergraph.of_mapped_csr" in
  let num_edges = dim edge_offset - 1 in
  (* the vertex CSR arrives precomputed (it is part of the packed file
     so loading is pure mmap); cross-check it against the edge CSR *)
  if dim vertex_offset <> num_vertices + 1 then
    fail "%s: vertex_offset length mismatch" what;
  if dim vertex_edges <> dim edge_pins then
    fail "%s: vertex_edges length mismatch" what;
  if get vertex_offset 0 <> 0 then fail "%s: vertex_offset must start at 0" what;
  let degree = Array.make (max num_vertices 1) 0 in
  for i = 0 to dim edge_pins - 1 do
    let v = ug edge_pins i in
    degree.(v) <- degree.(v) + 1
  done;
  for v = 0 to num_vertices - 1 do
    if ug vertex_offset (v + 1) - ug vertex_offset v <> degree.(v) then
      fail "%s: vertex_offset disagrees with pin degrees at vertex %d" what v
  done;
  for i = 0 to dim vertex_edges - 1 do
    let e = ug vertex_edges i in
    if e < 0 || e >= num_edges then
      fail "%s: vertex_edges entry %d out of range" what e
  done;
  finish
    ~vertex:
      {
        vertex_offset;
        vertex_edges;
        max_vertex_degree = max_degree vertex_offset num_vertices;
      }
    ~num_vertices ~num_edges ~edge_offset ~edge_pins ~vertex_weight
    ~edge_weight ()

let max_i32 = 0x7FFFFFFF

let create ?vertex_weights ?edge_weights ~num_vertices ~edges () =
  if num_vertices < 0 then invalid_arg "Hypergraph.create: negative vertex count";
  let num_edges = Array.length edges in
  let vertex_weight =
    match vertex_weights with
    | None -> Array.make num_vertices 1
    | Some w ->
      if Array.length w <> num_vertices then
        invalid_arg "Hypergraph.create: vertex_weights length mismatch";
      Array.iter
        (fun x ->
          if x <= 0 then invalid_arg "Hypergraph.create: non-positive vertex weight";
          if x > max_i32 then invalid_arg "Hypergraph.create: weight exceeds int32")
        w;
      Array.copy w
  in
  let edge_weight =
    match edge_weights with
    | None -> Array.make num_edges 1
    | Some w ->
      if Array.length w <> num_edges then
        invalid_arg "Hypergraph.create: edge_weights length mismatch";
      Array.iter
        (fun x ->
          if x <= 0 then invalid_arg "Hypergraph.create: non-positive edge weight";
          if x > max_i32 then invalid_arg "Hypergraph.create: weight exceeds int32")
        w;
      Array.copy w
  in
  (* Deduplicate pins within each edge, preserving first-occurrence
     order, using a timestamped mark array to avoid per-edge clearing. *)
  let mark = Array.make (max num_vertices 1) (-1) in
  let deduped =
    Array.mapi
      (fun e pins ->
        let out = ref [] in
        let n = ref 0 in
        Array.iter
          (fun v ->
            if v < 0 || v >= num_vertices then
              invalid_arg "Hypergraph.create: pin out of range";
            if mark.(v) <> e then begin
              mark.(v) <- e;
              out := v :: !out;
              incr n
            end)
          pins;
        let a = Array.make !n 0 in
        List.iteri (fun i v -> a.(!n - 1 - i) <- v) !out;
        a)
      edges
  in
  let edge_offset = Array.make (num_edges + 1) 0 in
  for e = 0 to num_edges - 1 do
    edge_offset.(e + 1) <- edge_offset.(e) + Array.length deduped.(e)
  done;
  if edge_offset.(num_edges) > max_i32 then
    invalid_arg "Hypergraph.create: pin count exceeds int32";
  let edge_pins = Array.make edge_offset.(num_edges) 0 in
  Array.iteri
    (fun e pins -> Array.blit pins 0 edge_pins edge_offset.(e) (Array.length pins))
    deduped;
  of_csr ~num_vertices ~edge_offset ~edge_pins ~vertex_weight ~edge_weight

let stats h =
  let nv = h.num_vertices and ne = h.num_edges in
  let pins = num_pins h in
  let max_size = ref 0 and big = ref 0 in
  for e = 0 to ne - 1 do
    let s = edge_size h e in
    if s > !max_size then max_size := s;
    if s > 50 then incr big
  done;
  let min_area = ref max_int in
  for v = 0 to nv - 1 do
    let w = ug h.vertex_weight v in
    if w < !min_area then min_area := w
  done;
  {
    Stats_summary.num_vertices = nv;
    num_edges = ne;
    num_pins = pins;
    avg_vertex_degree = (if nv = 0 then 0. else float_of_int pins /. float_of_int nv);
    avg_edge_size = (if ne = 0 then 0. else float_of_int pins /. float_of_int ne);
    max_edge_size = !max_size;
    max_vertex_degree = max_vertex_degree h;
    total_area = h.total_vertex_weight;
    max_area = h.max_vertex_weight;
    min_area = (if nv = 0 then 0 else !min_area);
    edges_over_50_pins = !big;
  }

(* In-place ascending sort of [a.(lo .. lo+len-1)] for [contract].
   Pins of one net are distinct, so any correct sort gives the same
   order: insertion sort for the common small nets, heapsort above
   [small_net] so huge nets stay O(s log s).  Monomorphic int
   comparisons throughout. *)
let small_net = 16

let sort_pins (a : int array) lo len =
  if len <= small_net then
    for i = lo + 1 to lo + len - 1 do
      let x = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= lo && Array.unsafe_get a !j > x do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) x
    done
  else begin
    let rec sift i n =
      let l = (2 * i) + 1 in
      if l < n then begin
        let c =
          if l + 1 < n && a.(lo + l) < a.(lo + l + 1) then l + 1 else l
        in
        if a.(lo + i) < a.(lo + c) then begin
          let t = a.(lo + i) in
          a.(lo + i) <- a.(lo + c);
          a.(lo + c) <- t;
          sift c n
        end
      end
    in
    for i = (len / 2) - 1 downto 0 do
      sift i len
    done;
    for n = len - 1 downto 1 do
      let t = a.(lo) in
      a.(lo) <- a.(lo + n);
      a.(lo + n) <- t;
      sift 0 n
    done
  end

(* Hash of a sorted pin run, for identical-net merging in [contract]. *)
let hash_pins (pins : int array) lo len =
  let h = ref 0x345678 in
  for i = lo to lo + len - 1 do
    h := (!h * 1000003) lxor Array.unsafe_get pins i
  done;
  !h land max_int

let contract h ~cluster_of ~num_clusters =
  if Array.length cluster_of <> h.num_vertices then
    invalid_arg "Hypergraph.contract: cluster_of length mismatch";
  Array.iter
    (fun c ->
      if c < 0 || c >= num_clusters then
        invalid_arg "Hypergraph.contract: cluster id out of range")
    cluster_of;
  let vertex_weight = Array.make num_clusters 0 in
  for v = 0 to h.num_vertices - 1 do
    let c = cluster_of.(v) in
    vertex_weight.(c) <- vertex_weight.(c) + ug h.vertex_weight v
  done;
  (* Pass 1: translate and deduplicate each net's pins into one flat
     buffer ([koff] delimits kept net k, [kedge] is its fine id), sort
     each run in place and drop nets that collapse to one pin. *)
  let mark = Array.make (max num_clusters 1) (-1) in
  let buf = Array.make (max (dim h.edge_pins) 1) 0 in
  let koff = Array.make (h.num_edges + 1) 0 in
  let kedge = Array.make (max h.num_edges 1) 0 in
  let n_kept = ref 0 and pos = ref 0 in
  for e = 0 to h.num_edges - 1 do
    let start = !pos in
    for i = ug h.edge_offset e to ug h.edge_offset (e + 1) - 1 do
      let c = Array.unsafe_get cluster_of (ug h.edge_pins i) in
      if Array.unsafe_get mark c <> e then begin
        Array.unsafe_set mark c e;
        Array.unsafe_set buf !pos c;
        incr pos
      end
    done;
    let len = !pos - start in
    if len >= 2 then begin
      sort_pins buf start len;
      kedge.(!n_kept) <- e;
      incr n_kept;
      koff.(!n_kept) <- !pos
    end
    else pos := start
  done;
  let n_kept = !n_kept in
  (* Pass 2: merge identical nets through an open-addressing table of
     kept-net ids (linear probing, power-of-two size, load <= 1/2).
     The first occurrence represents its class, so coarse ids follow
     first occurrences in fine net order. *)
  let size = ref 1 in
  while !size < 2 * n_kept do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  let table = Array.make !size (-1) in
  let khash = Array.make (max n_kept 1) 0 in
  let coarse_of = Array.make (max n_kept 1) (-1) in
  let num_coarse = ref 0 and coarse_pins = ref 0 in
  for k = 0 to n_kept - 1 do
    let lo = koff.(k) and len = koff.(k + 1) - koff.(k) in
    let hk = hash_pins buf lo len in
    khash.(k) <- hk;
    let slot = ref (hk land mask) and found = ref (-1) in
    while !found < 0 && table.(!slot) >= 0 do
      let k' = table.(!slot) in
      let lo' = koff.(k') in
      if khash.(k') = hk && koff.(k' + 1) - lo' = len then begin
        let i = ref 0 in
        while !i < len && buf.(lo + !i) = buf.(lo' + !i) do
          incr i
        done;
        if !i = len then found := k'
      end;
      if !found < 0 then slot := (!slot + 1) land mask
    done;
    if !found >= 0 then coarse_of.(k) <- coarse_of.(!found)
    else begin
      table.(!slot) <- k;
      coarse_of.(k) <- !num_coarse;
      incr num_coarse;
      coarse_pins := !coarse_pins + len
    end
  done;
  let num_coarse = !num_coarse in
  let edge_offset = i32_create (num_coarse + 1) in
  let edge_pins = i32_create !coarse_pins in
  let edge_weight = Array.make num_coarse 0 in
  let edge_map = Array.make h.num_edges (-1) in
  Bigarray.Array1.set edge_offset 0 0l;
  let next = ref 0 and p = ref 0 in
  for k = 0 to n_kept - 1 do
    let c = coarse_of.(k) in
    let e = kedge.(k) in
    edge_map.(e) <- c;
    edge_weight.(c) <- edge_weight.(c) + ug h.edge_weight e;
    (* a representative is the first kept net mapped to its class *)
    if c = !next then begin
      for i = koff.(k) to koff.(k + 1) - 1 do
        Bigarray.Array1.unsafe_set edge_pins !p (Int32.of_int buf.(i));
        incr p
      done;
      incr next;
      Bigarray.Array1.unsafe_set edge_offset !next (Int32.of_int !p)
    end
  done;
  let coarse =
    of_int32_csr_unchecked ~num_vertices:num_clusters ~edge_offset ~edge_pins
      ~vertex_weight:(i32_of_array vertex_weight)
      ~edge_weight:(i32_of_array edge_weight)
  in
  (coarse, edge_map)

let reweight_edges h ~weights =
  if Array.length weights <> h.num_edges then
    invalid_arg "Hypergraph.reweight_edges: weights length mismatch";
  Array.iter
    (fun w -> if w <= 0 then invalid_arg "Hypergraph.reweight_edges: non-positive weight")
    weights;
  { h with edge_weight = i32_of_array weights }

let induce h ~keep =
  if Array.length keep <> h.num_vertices then
    invalid_arg "Hypergraph.induce: keep length mismatch";
  let vmap = Array.make h.num_vertices (-1) in
  let n = ref 0 in
  for v = 0 to h.num_vertices - 1 do
    if keep.(v) then begin
      vmap.(v) <- !n;
      incr n
    end
  done;
  let nv = !n in
  let vertex_weight = Array.make nv 0 in
  for v = 0 to h.num_vertices - 1 do
    if vmap.(v) >= 0 then vertex_weight.(vmap.(v)) <- ug h.vertex_weight v
  done;
  let pins_acc = ref [] and w_acc = ref [] and total = ref 0 in
  for e = 0 to h.num_edges - 1 do
    let pins =
      fold_pins h e ~init:[] ~f:(fun acc v ->
          if vmap.(v) >= 0 then vmap.(v) :: acc else acc)
    in
    match pins with
    | [] | [ _ ] -> ()
    | _ ->
      let a = Array.of_list (List.rev pins) in
      pins_acc := a :: !pins_acc;
      w_acc := ug h.edge_weight e :: !w_acc;
      total := !total + Array.length a
  done;
  let kept = Array.of_list (List.rev !pins_acc) in
  let weights = Array.of_list (List.rev !w_acc) in
  let ne = Array.length kept in
  let edge_offset = Array.make (ne + 1) 0 in
  for e = 0 to ne - 1 do
    edge_offset.(e + 1) <- edge_offset.(e) + Array.length kept.(e)
  done;
  let edge_pins = Array.make !total 0 in
  Array.iteri (fun e p -> Array.blit p 0 edge_pins edge_offset.(e) (Array.length p)) kept;
  let sub =
    of_csr ~num_vertices:nv ~edge_offset ~edge_pins ~vertex_weight
      ~edge_weight:weights
  in
  (sub, vmap)

let pp ppf h =
  Format.fprintf ppf "hypergraph: %d vertices, %d edges, %d pins"
    h.num_vertices h.num_edges (num_pins h)
