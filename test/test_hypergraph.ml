module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng

(* A small fixed instance used across tests:
     net 0: {0 1 2}   net 1: {1 3}   net 2: {2 3 4}   net 3: {0 4} *)
let sample () =
  H.create ~num_vertices:5
    ~edges:[| [| 0; 1; 2 |]; [| 1; 3 |]; [| 2; 3; 4 |]; [| 0; 4 |] |]
    ()

let test_sizes () =
  let h = sample () in
  Alcotest.(check int) "vertices" 5 (H.num_vertices h);
  Alcotest.(check int) "edges" 4 (H.num_edges h);
  Alcotest.(check int) "pins" 10 (H.num_pins h)

let test_edge_pins () =
  let h = sample () in
  Alcotest.(check (array int)) "net 0" [| 0; 1; 2 |] (Incidence.pins h 0);
  Alcotest.(check (array int)) "net 3" [| 0; 4 |] (Incidence.pins h 3);
  Alcotest.(check int) "size of net 1" 2 (H.edge_size h 1)

let test_vertex_edges () =
  let h = sample () in
  let sorted v =
    let a = Incidence.edges h v in
    Array.sort compare a;
    a
  in
  Alcotest.(check (array int)) "vertex 0" [| 0; 3 |] (sorted 0);
  Alcotest.(check (array int)) "vertex 3" [| 1; 2 |] (sorted 3);
  Alcotest.(check int) "degree of 2" 2 (H.vertex_degree h 2)

let test_default_weights () =
  let h = sample () in
  for v = 0 to 4 do
    Alcotest.(check int) "unit area" 1 (H.vertex_weight h v)
  done;
  Alcotest.(check int) "total" 5 (H.total_vertex_weight h)

let test_explicit_weights () =
  let h =
    H.create ~num_vertices:3 ~vertex_weights:[| 5; 1; 9 |] ~edge_weights:[| 2 |]
      ~edges:[| [| 0; 1; 2 |] |] ()
  in
  Alcotest.(check int) "vertex weight" 9 (H.vertex_weight h 2);
  Alcotest.(check int) "edge weight" 2 (H.edge_weight h 0);
  Alcotest.(check int) "total" 15 (H.total_vertex_weight h);
  Alcotest.(check int) "max vertex weight" 9 (H.stats h).Hypart_hypergraph.Stats_summary.max_area

let test_duplicate_pins_merged () =
  let h = H.create ~num_vertices:3 ~edges:[| [| 0; 1; 0; 1; 2; 2 |] |] () in
  Alcotest.(check int) "deduped size" 3 (H.edge_size h 0);
  Alcotest.(check (array int)) "order preserved" [| 0; 1; 2 |] (Incidence.pins h 0)

let test_invalid_inputs () =
  let bad f = Alcotest.check_raises "rejected" (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  bad (fun () -> ignore (H.create ~num_vertices:2 ~edges:[| [| 0; 5 |] |] ()));
  bad (fun () -> ignore (H.create ~num_vertices:2 ~edges:[| [| 0; -1 |] |] ()));
  bad (fun () ->
      ignore (H.create ~num_vertices:2 ~vertex_weights:[| 1 |] ~edges:[||] ()));
  bad (fun () ->
      ignore (H.create ~num_vertices:2 ~vertex_weights:[| 1; 0 |] ~edges:[||] ()))

let test_iterators_match_arrays () =
  let h = sample () in
  for e = 0 to H.num_edges h - 1 do
    let acc = ref [] in
    H.iter_pins h e (fun v -> acc := v :: !acc);
    Alcotest.(check (list int)) "iter_pins" (Array.to_list (Incidence.pins h e))
      (List.rev !acc)
  done;
  let total = H.fold_edges h 3 ~init:0 ~f:(fun acc _ -> acc + 1) in
  Alcotest.(check int) "fold_edges counts degree" (H.vertex_degree h 3) total

let test_stats () =
  let h = sample () in
  let s = H.stats h in
  Alcotest.(check int) "pins" 10 s.Hypart_hypergraph.Stats_summary.num_pins;
  Alcotest.(check (float 1e-9)) "avg degree" 2.0
    s.Hypart_hypergraph.Stats_summary.avg_vertex_degree;
  Alcotest.(check (float 1e-9)) "avg net size" 2.5
    s.Hypart_hypergraph.Stats_summary.avg_edge_size;
  Alcotest.(check int) "no mega nets" 0
    s.Hypart_hypergraph.Stats_summary.edges_over_50_pins

(* Contraction: merge {0,1} and {3,4}; keep 2 alone.
   net 0 {0 1 2} -> {A 2}; net 1 {1 3} -> {A B}; net 2 {2 3 4} -> {2 B};
   net 3 {0 4} -> {A B} merged with net 1. *)
let test_contract () =
  let h = sample () in
  let cluster_of = [| 0; 0; 1; 2; 2 |] in
  let coarse, edge_map = H.contract h ~cluster_of ~num_clusters:3 in
  Alcotest.(check int) "coarse vertices" 3 (H.num_vertices coarse);
  Alcotest.(check int) "coarse edges (net 3 merged into net 1)" 3
    (H.num_edges coarse);
  Alcotest.(check int) "weight of cluster 0" 2 (H.vertex_weight coarse 0);
  Alcotest.(check int) "weight of cluster 1" 1 (H.vertex_weight coarse 1);
  Alcotest.(check bool) "nets 1 and 3 map to same coarse net" true
    (edge_map.(1) = edge_map.(3) && edge_map.(1) >= 0);
  let merged = edge_map.(1) in
  Alcotest.(check int) "merged weight doubled" 2 (H.edge_weight coarse merged)

let test_contract_drops_internal_nets () =
  let h = sample () in
  (* everything into one cluster except vertex 4 *)
  let cluster_of = [| 0; 0; 0; 0; 1 |] in
  let coarse, edge_map = H.contract h ~cluster_of ~num_clusters:2 in
  (* nets 0 and 1 are fully internal -> dropped; nets 2 and 3 become {0 1},
     merged. *)
  Alcotest.(check int) "one coarse net" 1 (H.num_edges coarse);
  Alcotest.(check int) "net 0 dropped" (-1) edge_map.(0);
  Alcotest.(check int) "net 1 dropped" (-1) edge_map.(1);
  Alcotest.(check int) "merged net weight" 2 (H.edge_weight coarse edge_map.(2))

let test_contract_conserves_weight () =
  let h = sample () in
  let coarse, _ = H.contract h ~cluster_of:[| 0; 1; 0; 1; 0 |] ~num_clusters:2 in
  Alcotest.(check int) "total area conserved" (H.total_vertex_weight h)
    (H.total_vertex_weight coarse)

let test_induce () =
  let h = sample () in
  let keep = [| true; true; true; false; false |] in
  let sub, vmap = H.induce h ~keep in
  Alcotest.(check int) "kept vertices" 3 (H.num_vertices sub);
  (* net 0 survives whole; net 1 -> {1}, dropped; net 2 -> {2}, dropped;
     net 3 -> {0}, dropped *)
  Alcotest.(check int) "one surviving net" 1 (H.num_edges sub);
  Alcotest.(check int) "vertex 3 dropped" (-1) vmap.(3);
  Alcotest.(check int) "vertex 0 kept" 0 vmap.(0)

let test_empty_graph () =
  let h = H.create ~num_vertices:0 ~edges:[||] () in
  Alcotest.(check int) "no vertices" 0 (H.num_vertices h);
  Alcotest.(check int) "no pins" 0 (H.num_pins h)

let test_single_vertex () =
  let h = H.create ~num_vertices:1 ~edges:[| [| 0 |] |] () in
  Alcotest.(check int) "one vertex" 1 (H.num_vertices h);
  Alcotest.(check int) "degree" 1 (H.vertex_degree h 0);
  Alcotest.(check int) "edge size" 1 (H.edge_size h 0)

let test_self_loop_net_collapses () =
  (* an edge listing the same vertex repeatedly reduces to one pin *)
  let h = H.create ~num_vertices:2 ~edges:[| [| 1; 1; 1 |] |] () in
  Alcotest.(check int) "collapsed" 1 (H.edge_size h 0)

let test_contract_identity () =
  let h = sample () in
  let cluster_of = Array.init 5 (fun v -> v) in
  let coarse, edge_map = H.contract h ~cluster_of ~num_clusters:5 in
  Alcotest.(check int) "same vertices" 5 (H.num_vertices coarse);
  Alcotest.(check int) "same edges" 4 (H.num_edges coarse);
  Array.iteri
    (fun e c -> Alcotest.(check int) "identity edge map" e c)
    edge_map

let test_reweight_edges () =
  let h = sample () in
  let h' = H.reweight_edges h ~weights:[| 5; 1; 2; 9 |] in
  Alcotest.(check int) "new weight" 5 (H.edge_weight h' 0);
  Alcotest.(check int) "last weight" 9 (H.edge_weight h' 3);
  Alcotest.(check int) "original untouched" 1 (H.edge_weight h 0);
  Alcotest.(check (array int)) "structure shared" (Incidence.pins h 2) (Incidence.pins h' 2);
  Alcotest.check_raises "bad length" (Invalid_argument "x") (fun () ->
      try ignore (H.reweight_edges h ~weights:[| 1 |])
      with Invalid_argument _ -> raise (Invalid_argument "x"));
  Alcotest.check_raises "non-positive" (Invalid_argument "x") (fun () ->
      try ignore (H.reweight_edges h ~weights:[| 1; 0; 1; 1 |])
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_induce_all_kept () =
  let h = sample () in
  let sub, vmap = H.induce h ~keep:(Array.make 5 true) in
  Alcotest.(check int) "same vertices" 5 (H.num_vertices sub);
  Alcotest.(check int) "same edges" 4 (H.num_edges sub);
  Alcotest.(check (array int)) "identity map" [| 0; 1; 2; 3; 4 |] vmap

let test_pretty_printers () =
  let h = sample () in
  let hp = Format.asprintf "%a" H.pp h in
  Alcotest.(check string) "hypergraph pp"
    "hypergraph: 5 vertices, 4 edges, 10 pins" hp;
  let sp = Format.asprintf "%a" Hypart_hypergraph.Stats_summary.pp (H.stats h) in
  Alcotest.(check bool) "stats pp mentions pins" true
    (let needle = "pins: 10" in
     let nl = String.length needle and sl = String.length sp in
     let rec scan i = i + nl <= sl && (String.sub sp i nl = needle || scan (i + 1)) in
     scan 0)

(* Random hypergraph for property tests. *)
let random_hypergraph seed nv ne =
  let rng = Rng.create seed in
  let edges =
    Array.init ne (fun _ ->
        let size = 2 + Rng.int rng 4 in
        let size = min size nv in
        Rng.sample_distinct rng ~n:size ~universe:nv)
  in
  H.create ~num_vertices:nv ~edges ()

let prop_incidence_symmetric =
  QCheck.Test.make ~name:"vertex->edge and edge->vertex incidences agree"
    ~count:50
    QCheck.(triple small_int (int_range 2 60) (int_range 1 120))
    (fun (seed, nv, ne) ->
      let h = random_hypergraph seed nv ne in
      let ok = ref true in
      for e = 0 to H.num_edges h - 1 do
        H.iter_pins h e (fun v ->
            let found = ref false in
            H.iter_edges h v (fun e' -> if e' = e then found := true);
            if not !found then ok := false)
      done;
      for v = 0 to H.num_vertices h - 1 do
        H.iter_edges h v (fun e ->
            let found = ref false in
            H.iter_pins h e (fun v' -> if v' = v then found := true);
            if not !found then ok := false)
      done;
      !ok)

let prop_contract_weight_conserved =
  QCheck.Test.make ~name:"contraction conserves total vertex weight" ~count:50
    QCheck.(triple small_int (int_range 4 60) (int_range 1 120))
    (fun (seed, nv, ne) ->
      let h = random_hypergraph seed nv ne in
      let rng = Rng.create (seed + 1) in
      let k = 1 + Rng.int rng (nv - 1) in
      (* surjective cluster map: first k vertices pin down each cluster *)
      let cluster_of =
        Array.init nv (fun v -> if v < k then v else Rng.int rng k)
      in
      let coarse, _ = H.contract h ~cluster_of ~num_clusters:k in
      H.total_vertex_weight coarse = H.total_vertex_weight h
      && H.num_vertices coarse = k)

let prop_contract_no_trivial_nets =
  QCheck.Test.make ~name:"contraction leaves no single-pin nets" ~count:50
    QCheck.(triple small_int (int_range 4 60) (int_range 1 120))
    (fun (seed, nv, ne) ->
      let h = random_hypergraph seed nv ne in
      let rng = Rng.create (seed + 2) in
      let k = 2 + Rng.int rng (nv - 2) in
      let cluster_of =
        Array.init nv (fun v -> if v < k then v else Rng.int rng k)
      in
      let coarse, _ = H.contract h ~cluster_of ~num_clusters:k in
      let ok = ref true in
      for e = 0 to H.num_edges coarse - 1 do
        if H.edge_size coarse e < 2 then ok := false
      done;
      !ok)

(* Random inputs for the contraction oracle: a mix of 2-4 pin nets,
   nets of up to 120 pins (past the kernel's insertion-sort cutoff),
   verbatim and permuted copies of earlier nets (identical coarse
   nets), and nets drawn inside one cluster (collapse to one pin). *)
let contraction_input seed =
  let rng = Rng.create seed in
  let nv = 2 + Rng.int rng 200 in
  let k = 1 + Rng.int rng nv in
  let cluster_of = Array.init nv (fun v -> if v < k then v else Rng.int rng k) in
  let members = Array.make k [] in
  Array.iteri (fun v c -> members.(c) <- v :: members.(c)) cluster_of;
  let ne = Rng.int rng 150 in
  let edges = Array.make ne [||] in
  for e = 0 to ne - 1 do
    edges.(e) <-
      (match Rng.int rng 6 with
       | 0 -> Rng.sample_distinct rng ~n:(min nv (17 + Rng.int rng 104)) ~universe:nv
       | 1 when e > 0 -> Array.copy edges.(Rng.int rng e)
       | 2 when e > 0 ->
         let a = edges.(Rng.int rng e) in
         Array.map (fun i -> a.(i)) (Rng.permutation rng (Array.length a))
       | 3 -> Array.of_list members.(Rng.int rng k)
       | _ -> Rng.sample_distinct rng ~n:(min nv (2 + Rng.int rng 3)) ~universe:nv)
  done;
  let vertex_weights = Array.init nv (fun _ -> 1 + Rng.int rng 9) in
  let edge_weights = Array.init ne (fun _ -> 1 + Rng.int rng 9) in
  let h = H.create ~num_vertices:nv ~vertex_weights ~edge_weights ~edges () in
  (h, cluster_of, k)

let prop_contract_matches_reference =
  QCheck.Test.make ~name:"contraction matches the list/Hashtbl reference"
    ~count:300 QCheck.(int_bound 1_000_000) (fun seed ->
      let h, cluster_of, k = contraction_input seed in
      let coarse, edge_map = H.contract h ~cluster_of ~num_clusters:k in
      let edges, edge_weight, vertex_weight, ref_map =
        Contract_ref.contract h ~cluster_of ~num_clusters:k
      in
      let nc = H.num_edges coarse in
      (* vertex -> edge incidence the reference edges imply *)
      let incident = Array.make k [] in
      for c = Array.length edges - 1 downto 0 do
        Array.iter (fun v -> incident.(v) <- c :: incident.(v)) edges.(c)
      done;
      H.num_vertices coarse = k
      && nc = Array.length edges
      && edge_map = ref_map
      && Array.init nc (Incidence.pins coarse) = edges
      && Array.init nc (H.edge_weight coarse) = edge_weight
      && Array.init k (H.vertex_weight coarse) = vertex_weight
      && Array.init k (Incidence.edges coarse)
         = Array.map Array.of_list incident)

(* -- the vertex CSR, built on first use -- *)

(* edges incident to each vertex, ascending, from the edge CSR alone *)
let reference_transpose g =
  let lists = Array.make (H.num_vertices g) [] in
  for e = H.num_edges g - 1 downto 0 do
    H.iter_pins g e (fun v -> lists.(v) <- e :: lists.(v))
  done;
  Array.map Array.of_list lists

let copy_i32 a =
  let b = Bigarray.Array1.create Bigarray.Int32 Bigarray.c_layout (Bigarray.Array1.dim a) in
  Bigarray.Array1.blit a b;
  b

(* the same random instance through every constructor; only the mapped
   one has its vertex CSR before the first read *)
let every_constructor seed nv ne =
  let base = random_hypergraph seed nv ne in
  let csr f =
    f ~num_vertices:nv
      ~edge_offset:(copy_i32 (H.Csr.edge_offset base))
      ~edge_pins:(copy_i32 (H.Csr.edge_pins base))
      ~vertex_weight:(copy_i32 (H.Csr.vertex_weight base))
      ~edge_weight:(copy_i32 (H.Csr.edge_weight base))
  in
  let checked = csr H.of_int32_csr and unchecked = csr H.of_int32_csr_unchecked in
  let coarse, _ =
    H.contract base ~cluster_of:(Array.init nv (fun v -> v / 2)) ~num_clusters:((nv + 1) / 2)
  in
  let sub, _ = H.induce base ~keep:(Array.init nv (fun v -> v mod 3 <> 0)) in
  let heavy = H.reweight_edges base ~weights:(Array.make (H.num_edges base) 2) in
  let decoded, _ =
    Hypart_hypergraph.Netlist_io.decode ~source:"<body>" Hypart_hypergraph.Netlist_io.Hgr
      (Hypart_hypergraph.Netlist_io.hgr_string base)
  in
  (* a mapped instance arrives with its vertex CSR *)
  let lists = reference_transpose base in
  let vertex_offset = Array.make (nv + 1) 0 in
  Array.iteri (fun v a -> vertex_offset.(v + 1) <- vertex_offset.(v) + Array.length a) lists;
  let i32 a = Bigarray.Array1.of_array Bigarray.Int32 Bigarray.c_layout (Array.map Int32.of_int a) in
  let mapped =
    H.of_mapped_csr ~num_vertices:nv
      ~edge_offset:(copy_i32 (H.Csr.edge_offset base))
      ~edge_pins:(copy_i32 (H.Csr.edge_pins base))
      ~vertex_offset:(i32 vertex_offset)
      ~vertex_edges:(i32 (Array.concat (Array.to_list lists)))
      ~vertex_weight:(copy_i32 (H.Csr.vertex_weight base))
      ~edge_weight:(copy_i32 (H.Csr.edge_weight base))
  in
  [
    ("create", base); ("of_int32_csr", checked); ("of_int32_csr_unchecked", unchecked);
    ("of_mapped_csr", mapped);
    ("contract", coarse); ("induce", sub); ("reweight_edges", heavy); (".hgr decode", decoded);
  ]

let prop_lazy_vertex_csr =
  QCheck.Test.make ~name:"the vertex CSR built on first use is the transpose"
    ~count:100
    QCheck.(triple small_int (int_range 2 60) (int_range 0 120))
    (fun (seed, nv, ne) ->
      List.for_all
        (fun (name, g) ->
          let bytes = H.memory_bytes g in
          let expected = reference_transpose g in
          let built = Array.init (H.num_vertices g) (Incidence.edges g) in
          let max_degree = Array.fold_left (fun m a -> max m (Array.length a)) 0 expected in
          if built <> expected then QCheck.Test.fail_reportf "%s: vertex CSR differs" name;
          if H.max_vertex_degree g <> max_degree then
            QCheck.Test.fail_reportf "%s: max degree %d, expected %d" name
              (H.max_vertex_degree g) max_degree;
          if H.memory_bytes g <> bytes then
            QCheck.Test.fail_reportf "%s: memory_bytes %d before the first read, %d after"
              name bytes (H.memory_bytes g);
          true)
        (every_constructor seed nv ne))

(* two domains read one fresh instance's vertex CSR at the same moment:
   whichever publishes first, both hold the very same arrays *)
let test_lazy_vertex_csr_race () =
  for seed = 1 to 20 do
    let g = random_hypergraph seed 2000 4000 in
    let ready = Atomic.make 0 in
    let read () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      (H.Csr.vertex_offset g, H.Csr.vertex_edges g)
    in
    let other = Domain.spawn read in
    let off_a, edges_a = read () in
    let off_b, edges_b = Domain.join other in
    Alcotest.(check bool) "same vertex_offset" true (off_a == off_b);
    Alcotest.(check bool) "same vertex_edges" true (edges_a == edges_b);
    Alcotest.(check bool) "kept" true (H.Csr.vertex_offset g == off_a)
  done

(* -- Buf32: the CSR buffer of the delta patcher -- *)

module Buf32 = Hypart_hypergraph.Buf32

let test_buf32_exact_contents () =
  let b = Buf32.create 0 in
  for i = 1 to 40 do
    Buf32.push b i
  done;
  let src = Bigarray.Array1.of_array Bigarray.Int32 Bigarray.c_layout [| 7l; 8l; 9l |] in
  Buf32.blit b src 1 2;
  Buf32.push_ints b [| 5; 6; 7 |] 2;
  Alcotest.(check int) "length" 44 (Buf32.length b);
  let c = Buf32.contents b in
  (* a sub view would keep the 64-slot buffer alive behind an instance
     and hide it from Hypergraph.memory_bytes *)
  Alcotest.(check int) "exactly sized" 44 (Bigarray.Array1.dim c);
  Alcotest.(check (list int32)) "pushed, blitted, pushed in a run" [ 40l; 8l; 9l; 5l; 6l ]
    (List.init 5 (fun i -> c.{39 + i}));
  c.{0} <- 99l;
  Alcotest.(check int32) "detached from the buffer" 1l (Buf32.contents b).{0}

let () =
  Alcotest.run "hypergraph"
    [
      ( "buf32",
        [ Alcotest.test_case "exact detached contents" `Quick test_buf32_exact_contents ] );
      ( "construction",
        [
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "edge pins" `Quick test_edge_pins;
          Alcotest.test_case "vertex edges" `Quick test_vertex_edges;
          Alcotest.test_case "default weights" `Quick test_default_weights;
          Alcotest.test_case "explicit weights" `Quick test_explicit_weights;
          Alcotest.test_case "duplicate pins merged" `Quick test_duplicate_pins_merged;
          Alcotest.test_case "invalid inputs rejected" `Quick test_invalid_inputs;
          Alcotest.test_case "iterators" `Quick test_iterators_match_arrays;
        ] );
      ( "queries",
        [
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "single vertex" `Quick test_single_vertex;
          Alcotest.test_case "self-loop net" `Quick test_self_loop_net_collapses;
          Alcotest.test_case "contract identity" `Quick test_contract_identity;
          Alcotest.test_case "induce all kept" `Quick test_induce_all_kept;
          Alcotest.test_case "reweight edges" `Quick test_reweight_edges;
          Alcotest.test_case "pretty printers" `Quick test_pretty_printers;
        ] );
      ( "derived",
        [
          Alcotest.test_case "contract" `Quick test_contract;
          Alcotest.test_case "contract drops internal nets" `Quick
            test_contract_drops_internal_nets;
          Alcotest.test_case "contract conserves weight" `Quick
            test_contract_conserves_weight;
          Alcotest.test_case "induce" `Quick test_induce;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_incidence_symmetric;
          QCheck_alcotest.to_alcotest prop_contract_weight_conserved;
          QCheck_alcotest.to_alcotest prop_contract_no_trivial_nets;
          QCheck_alcotest.to_alcotest prop_contract_matches_reference;
          QCheck_alcotest.to_alcotest prop_lazy_vertex_csr;
        ] );
      ( "vertex CSR",
        [ Alcotest.test_case "racing first reads share one copy" `Quick test_lazy_vertex_csr_race ] );
    ]
