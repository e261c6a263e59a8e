module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Balance = Hypart_partition.Balance
module Bipartition = Hypart_partition.Bipartition
module Problem = Hypart_partition.Problem
module Initial = Hypart_partition.Initial
module Fm_config = Hypart_fm.Fm_config
module Gc = Hypart_fm.Gain_container
module Fm = Hypart_fm.Fm
module Fm_engines = Hypart_fm.Fm_engines
module Engine = Hypart_engine.Engine
module Cancel = Hypart_engine.Cancel
module Telemetry = Hypart_telemetry.Telemetry
module Metrics = Hypart_telemetry.Metrics

(* ------------------------------------------------------------------ *)
(* Gain container                                                      *)
(* ------------------------------------------------------------------ *)

let mk_container ?(insertion = Fm_config.Lifo) ?(n = 16) ?(max_key = 10) () =
  Gc.create ~num_vertices:n ~max_key ~insertion ~rng:(Rng.create 1)

let test_gc_insert_mem_key () =
  let c = mk_container () in
  Gc.insert c ~side:0 ~key:3 5;
  Alcotest.(check bool) "mem" true (Gc.mem c 5);
  Alcotest.(check bool) "not mem" false (Gc.mem c 6);
  Alcotest.(check int) "key" 3 (Gc.key c 5);
  Alcotest.(check int) "size side 0" 1 (Gc.size c 0);
  Alcotest.(check int) "size side 1" 0 (Gc.size c 1)

let test_gc_remove () =
  let c = mk_container () in
  Gc.insert c ~side:0 ~key:2 1;
  Gc.insert c ~side:0 ~key:2 2;
  Gc.remove c 1;
  Alcotest.(check bool) "removed" false (Gc.mem c 1);
  Alcotest.(check int) "size" 1 (Gc.size c 0);
  Gc.remove c 1;
  Alcotest.(check int) "double remove is noop" 1 (Gc.size c 0)

let test_gc_lifo_order () =
  let c = mk_container ~insertion:Fm_config.Lifo () in
  Gc.insert c ~side:0 ~key:4 1;
  Gc.insert c ~side:0 ~key:4 2;
  Gc.insert c ~side:0 ~key:4 3;
  Alcotest.(check (option int)) "last inserted at head" (Some 3)
    (Gc.head_of_max_bucket c ~side:0)

let test_gc_fifo_order () =
  let c = mk_container ~insertion:Fm_config.Fifo () in
  Gc.insert c ~side:0 ~key:4 1;
  Gc.insert c ~side:0 ~key:4 2;
  Gc.insert c ~side:0 ~key:4 3;
  Alcotest.(check (option int)) "first inserted at head" (Some 1)
    (Gc.head_of_max_bucket c ~side:0)

let test_gc_max_bucket_tracking () =
  let c = mk_container () in
  Gc.insert c ~side:0 ~key:(-2) 1;
  Gc.insert c ~side:0 ~key:5 2;
  Gc.insert c ~side:0 ~key:1 3;
  Alcotest.(check (option int)) "max is key 5" (Some 2)
    (Gc.head_of_max_bucket c ~side:0);
  Gc.remove c 2;
  Alcotest.(check (option int)) "max decays to key 1" (Some 3)
    (Gc.head_of_max_bucket c ~side:0);
  Gc.remove c 3;
  Gc.remove c 1;
  Alcotest.(check (option int)) "empty" None (Gc.head_of_max_bucket c ~side:0)

let test_gc_negative_keys () =
  let c = mk_container () in
  Gc.insert c ~side:1 ~key:(-7) 4;
  Alcotest.(check (option int)) "negative key retrievable" (Some 4)
    (Gc.head_of_max_bucket c ~side:1);
  Alcotest.(check int) "key" (-7) (Gc.key c 4)

let test_gc_update_key () =
  let c = mk_container () in
  Gc.insert c ~side:0 ~key:0 1;
  Gc.insert c ~side:0 ~key:0 2;
  Gc.update_key c 1 ~delta:3;
  Alcotest.(check int) "new key" 3 (Gc.key c 1);
  Alcotest.(check (option int)) "moved to max" (Some 1)
    (Gc.head_of_max_bucket c ~side:0);
  Gc.update_key c 1 ~delta:(-5);
  Alcotest.(check int) "key down" (-2) (Gc.key c 1);
  Alcotest.(check (option int)) "vertex 2 now at max" (Some 2)
    (Gc.head_of_max_bucket c ~side:0)

let test_gc_refresh_lifo_moves_to_head () =
  let c = mk_container ~insertion:Fm_config.Lifo () in
  Gc.insert c ~side:0 ~key:2 1;
  Gc.insert c ~side:0 ~key:2 2;
  (* head is 2; refreshing 1 moves it to the head *)
  Gc.refresh c 1;
  Alcotest.(check (option int)) "refreshed at head" (Some 1)
    (Gc.head_of_max_bucket c ~side:0);
  Alcotest.(check int) "key unchanged" 2 (Gc.key c 1)

let test_gc_refresh_fifo_moves_to_tail () =
  let c = mk_container ~insertion:Fm_config.Fifo () in
  Gc.insert c ~side:0 ~key:2 1;
  Gc.insert c ~side:0 ~key:2 2;
  Gc.refresh c 1;
  Alcotest.(check (option int)) "head now 2" (Some 2)
    (Gc.head_of_max_bucket c ~side:0)

let test_gc_sides_independent () =
  let c = mk_container () in
  Gc.insert c ~side:0 ~key:1 1;
  Gc.insert c ~side:1 ~key:9 2;
  Alcotest.(check (option int)) "side 0" (Some 1) (Gc.head_of_max_bucket c ~side:0);
  Alcotest.(check (option int)) "side 1" (Some 2) (Gc.head_of_max_bucket c ~side:1)

let test_gc_clear () =
  let c = mk_container () in
  for v = 0 to 9 do
    Gc.insert c ~side:(v mod 2) ~key:(v - 5) v
  done;
  Gc.clear c;
  Alcotest.(check int) "side 0 empty" 0 (Gc.size c 0);
  Alcotest.(check int) "side 1 empty" 0 (Gc.size c 1);
  Alcotest.(check bool) "not mem" false (Gc.mem c 3);
  (* container must be reusable after clear *)
  Gc.insert c ~side:0 ~key:2 3;
  Alcotest.(check (option int)) "reusable" (Some 3) (Gc.head_of_max_bucket c ~side:0)

let test_gc_drain_and_refill () =
  (* fully draining a side must reset the max pointer: a later refill
     at the bottom of the key range has to be found (regression test
     for the stale-maxptr bug in [settle_max]) *)
  let c = mk_container () in
  Gc.insert c ~side:0 ~key:9 1;
  Gc.insert c ~side:0 ~key:8 2;
  Gc.remove c 1;
  Gc.remove c 2;
  Alcotest.(check (option int)) "drained" None (Gc.head_of_max_bucket c ~side:0);
  Gc.insert c ~side:0 ~key:(-10) 3;
  Alcotest.(check (option int)) "refill at lowest key found" (Some 3)
    (Gc.head_of_max_bucket c ~side:0);
  Gc.insert c ~side:0 ~key:(-9) 4;
  Alcotest.(check (option int)) "max tracks the refill" (Some 4)
    (Gc.head_of_max_bucket c ~side:0);
  Alcotest.(check int) "select sees the refilled side" 4
    (Gc.select c ~side:0 ~legal:(fun _ -> true)
       ~illegal_head:Fm_config.Skip_side);
  Alcotest.(check bool) "no cork" false (Gc.last_select_corked c)

let test_gc_ops_counters_disjoint () =
  (* update_key/refresh are repositions, not insert+remove pairs: the
     three counters must stay disjoint so [gain.removes = fm.moves]
     holds in the engine *)
  let c = mk_container () in
  Gc.insert c ~side:0 ~key:0 1;
  Gc.insert c ~side:0 ~key:1 2;
  Gc.insert c ~side:1 ~key:2 3;
  Gc.update_key c 1 ~delta:2;
  Gc.refresh c 2;
  Gc.update_key c 1 ~delta:(-1);
  Gc.remove c 3;
  Gc.remove c 3;
  (* second remove is a no-op *)
  let ops = Gc.ops c in
  Alcotest.(check int) "inserts" 3 ops.Gc.inserts;
  Alcotest.(check int) "removes" 1 ops.Gc.removes;
  Alcotest.(check int) "repositions" 3 ops.Gc.repositions;
  (* clear unlinks everything without touching the traffic counters *)
  Gc.clear c;
  let ops' = Gc.ops c in
  Alcotest.(check bool) "clear leaves counters" true (ops' = ops)

let test_gc_select_skip_side () =
  let c = mk_container () in
  Gc.insert c ~side:0 ~key:5 1;
  Gc.insert c ~side:0 ~key:3 2;
  let sel legal =
    Gc.select c ~side:0 ~legal ~illegal_head:Fm_config.Skip_side
  in
  Alcotest.(check int) "legal head selected" 1 (sel (fun _ -> true));
  Alcotest.(check bool) "no cork" false (Gc.last_select_corked c);
  Alcotest.(check int) "illegal head -> none" (-1) (sel (fun v -> v <> 1));
  Alcotest.(check bool) "corked flag set" true (Gc.last_select_corked c)

let test_gc_select_skip_bucket () =
  let c = mk_container () in
  Gc.insert c ~side:0 ~key:5 1;
  Gc.insert c ~side:0 ~key:3 2;
  let r =
    Gc.select c ~side:0 ~legal:(fun v -> v <> 1)
      ~illegal_head:Fm_config.Skip_bucket
  in
  Alcotest.(check int) "falls through to lower bucket" 2 r;
  Alcotest.(check bool) "corked" true (Gc.last_select_corked c)

let test_gc_select_scan_bucket () =
  let c = mk_container ~insertion:Fm_config.Lifo () in
  Gc.insert c ~side:0 ~key:5 1;
  Gc.insert c ~side:0 ~key:5 2;
  (* head is 2 (LIFO); only 1 is legal; scanning finds it in the bucket *)
  let r =
    Gc.select c ~side:0 ~legal:(fun v -> v = 1)
      ~illegal_head:Fm_config.Scan_bucket
  in
  Alcotest.(check int) "found beyond head" 1 r;
  Alcotest.(check bool) "corked" true (Gc.last_select_corked c)

let test_gc_select_empty () =
  let c = mk_container () in
  Alcotest.(check int) "empty side" (-1)
    (Gc.select c ~side:0 ~legal:(fun _ -> true) ~illegal_head:Fm_config.Skip_side);
  Alcotest.(check bool) "no cork on empty" false (Gc.last_select_corked c)

let prop_gc_random_ops =
  (* Random sequences of insert/remove/update against a naive model,
     across all three insertion policies. *)
  QCheck.Test.make ~name:"container agrees with naive model" ~count:300
    QCheck.(pair small_int (list (pair small_int small_int)))
    (fun (seed, ops) ->
      let n = 32 and max_key = 12 in
      let insertion =
        match seed mod 3 with
        | 0 -> Fm_config.Lifo
        | 1 -> Fm_config.Fifo
        | _ -> Fm_config.Random
      in
      let c =
        Gc.create ~num_vertices:n ~max_key ~insertion ~rng:(Rng.create seed)
      in
      let model = Hashtbl.create 16 in
      (* model: vertex -> (side, key) *)
      List.iter
        (fun (a, b) ->
          let v = abs a mod n in
          let choice = abs b mod 3 in
          match choice with
          | 0 ->
            if not (Gc.mem c v) then begin
              let side = abs b mod 2 and key = (abs (a * b) mod 21) - 10 in
              Gc.insert c ~side ~key v;
              Hashtbl.replace model v (side, key)
            end
          | 1 ->
            Gc.remove c v;
            Hashtbl.remove model v
          | _ ->
            if Gc.mem c v then begin
              let side, key = Hashtbl.find model v in
              let delta = (abs b mod 5) - 2 in
              let delta =
                if abs (key + delta) > max_key then 0 else delta
              in
              Gc.update_key c v ~delta;
              Hashtbl.replace model v (side, key + delta)
            end)
        ops;
      (* agreement: membership, keys, sizes, and max per side *)
      let ok = ref true in
      for v = 0 to n - 1 do
        match Hashtbl.find_opt model v with
        | Some (_, key) ->
          if not (Gc.mem c v) || Gc.key c v <> key then ok := false
        | None -> if Gc.mem c v then ok := false
      done;
      for side = 0 to 1 do
        let entries =
          Hashtbl.fold (fun _ (s, k) acc -> if s = side then k :: acc else acc)
            model []
        in
        let expected_size = List.length entries in
        if Gc.size c side <> expected_size then ok := false;
        let expected_max =
          match entries with [] -> None | _ -> Some (List.fold_left max min_int entries)
        in
        let got =
          Option.map (fun v -> Gc.key c v) (Gc.head_of_max_bucket c ~side)
        in
        if got <> expected_max then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* FM engine                                                           *)
(* ------------------------------------------------------------------ *)

let random_instance ?(nv = 60) ?(ne = 120) seed =
  let rng = Rng.create seed in
  let edges =
    Array.init ne (fun _ ->
        Rng.sample_distinct rng ~n:(2 + Rng.int rng 3) ~universe:nv)
  in
  H.create ~num_vertices:nv ~edges ()

let test_fm_finds_small_cut () =
  (* two 8-cliques joined by a single net: optimum cut = 1 *)
  let clique lo =
    let acc = ref [] in
    for i = 0 to 7 do
      for j = i + 1 to 7 do
        acc := [| lo + i; lo + j |] :: !acc
      done
    done;
    !acc
  in
  let edges = Array.of_list (clique 0 @ clique 8 @ [ [| 7; 8 |] ]) in
  let h = H.create ~num_vertices:16 ~edges () in
  let p = Problem.make ~tolerance:0.1 h in
  let r = Fm.run_random_start (Rng.create 3) p in
  Alcotest.(check bool) "legal" true r.Engine.Result.legal;
  Alcotest.(check int) "optimal cut found" 1 r.Engine.Result.cut

let test_fm_cut_consistency () =
  let h = random_instance 11 in
  let p = Problem.make ~tolerance:0.05 h in
  let r = Fm.run_random_start (Rng.create 4) p in
  Alcotest.(check int) "incremental cut = recomputed cut"
    (Bipartition.cut h r.Engine.Result.solution) r.Engine.Result.cut

let test_fm_improves_initial () =
  let h = random_instance 12 in
  let p = Problem.make ~tolerance:0.05 h in
  let rng = Rng.create 5 in
  let initial = Initial.random rng p in
  let c0 = Bipartition.cut h initial in
  let r = Fm.run rng p initial in
  Alcotest.(check bool) "no worse than initial" true (r.Engine.Result.cut <= c0);
  Alcotest.(check bool) "legal" true r.Engine.Result.legal

let test_fm_does_not_mutate_initial () =
  let h = random_instance 13 in
  let p = Problem.make ~tolerance:0.05 h in
  let rng = Rng.create 6 in
  let initial = Initial.random rng p in
  let snapshot = Bipartition.assignment initial in
  let _ = Fm.run rng p initial in
  Alcotest.(check (array int)) "input untouched" snapshot
    (Bipartition.assignment initial)

let test_fm_respects_fixed () =
  let h = random_instance 14 in
  let fixed = Array.make 60 (-1) in
  fixed.(0) <- 0;
  fixed.(1) <- 1;
  fixed.(7) <- 1;
  let p = Problem.make ~fixed ~tolerance:0.10 h in
  let r = Fm.run_random_start (Rng.create 7) p in
  Alcotest.(check int) "v0 fixed" 0 (Bipartition.side r.Engine.Result.solution 0);
  Alcotest.(check int) "v1 fixed" 1 (Bipartition.side r.Engine.Result.solution 1);
  Alcotest.(check int) "v7 fixed" 1 (Bipartition.side r.Engine.Result.solution 7)

let test_fm_oversized_never_moves () =
  (* one giant cell: with the corking fix it must stay wherever the
     initial solution put it *)
  let weights = Array.make 30 1 in
  weights.(0) <- 25;
  let rng = Rng.create 8 in
  let edges =
    Array.init 60 (fun _ -> Rng.sample_distinct rng ~n:3 ~universe:30)
  in
  let h = H.create ~num_vertices:30 ~vertex_weights:weights ~edges () in
  let p = Problem.make ~tolerance:0.10 h in
  let initial = Initial.area_levelled (Rng.create 9) p in
  let side0 = Bipartition.side initial 0 in
  let config = { Fm_config.default with Fm_config.exclude_oversized = true } in
  let r = Fm.run ~config (Rng.create 10) p initial in
  Alcotest.(check int) "giant cell unmoved" side0 (Bipartition.side r.Engine.Result.solution 0)

let test_fm_all_configs_produce_valid_results () =
  let h = random_instance 15 in
  let p = Problem.make ~tolerance:0.10 h in
  let engines = [ Fm_config.Lifo_fm; Fm_config.Clip_fm ] in
  let insertions = [ Fm_config.Lifo; Fm_config.Fifo; Fm_config.Random ] in
  let biases = [ Fm_config.Away; Fm_config.Part0; Fm_config.Toward ] in
  let updates = [ Fm_config.All_delta_gain; Fm_config.Nonzero_only ] in
  List.iter
    (fun engine ->
      List.iter
        (fun insertion ->
          List.iter
            (fun bias ->
              List.iter
                (fun update ->
                  let config =
                    { Fm_config.default with engine; insertion; bias; update }
                  in
                  let r = Fm.run_random_start ~config (Rng.create 16) p in
                  Alcotest.(check int)
                    (Fm_config.describe config ^ " cut consistent")
                    (Bipartition.cut h r.Engine.Result.solution)
                    r.Engine.Result.cut;
                  Alcotest.(check bool)
                    (Fm_config.describe config ^ " legal")
                    true r.Engine.Result.legal)
                updates)
            biases)
        insertions)
    engines

let test_fm_pass_best_policies () =
  let h = random_instance 17 in
  let p = Problem.make ~tolerance:0.10 h in
  List.iter
    (fun pass_best ->
      let config = { Fm_config.default with Fm_config.pass_best } in
      let r = Fm.run_random_start ~config (Rng.create 18) p in
      Alcotest.(check int) "cut consistent"
        (Bipartition.cut h r.Engine.Result.solution) r.Engine.Result.cut)
    [ Fm_config.First; Fm_config.Last; Fm_config.Most_balanced ]

let test_fm_illegal_head_policies () =
  let h = random_instance 19 in
  let p = Problem.make ~tolerance:0.02 h in
  List.iter
    (fun illegal_head ->
      let config = { Fm_config.default with Fm_config.illegal_head } in
      let r = Fm.run_random_start ~config (Rng.create 20) p in
      Alcotest.(check bool) "legal" true r.Engine.Result.legal)
    [ Fm_config.Skip_side; Fm_config.Skip_bucket; Fm_config.Scan_bucket ]

let test_fm_stats_populated () =
  let h = random_instance 21 in
  let p = Problem.make ~tolerance:0.05 h in
  let r = Fm.run_random_start (Rng.create 22) p in
  Alcotest.(check bool) "at least one pass" true
    (Engine.Result.stat r "passes" >= Some 1.);
  Alcotest.(check bool) "moves counted" true
    (Engine.Result.stat r "moves" >= Some 0.)

let test_fm_deterministic () =
  let h = random_instance 23 in
  let p = Problem.make ~tolerance:0.05 h in
  let a = Fm.run_random_start (Rng.create 24) p in
  let b = Fm.run_random_start (Rng.create 24) p in
  Alcotest.(check int) "same seed, same cut" a.Engine.Result.cut b.Engine.Result.cut;
  Alcotest.(check bool) "same solution" true
    (Bipartition.equal a.Engine.Result.solution b.Engine.Result.solution)

(* the registry multistart over plain FM under the default configuration *)
let default_fm =
  Fm_engines.of_config ~name:"fm-default" ~description:"" Fm_config.default

let test_multistart () =
  let h = random_instance 25 in
  let p = Problem.make ~tolerance:0.05 h in
  let best, records = Engine.multistart default_fm (Rng.create 26) p ~starts:8 in
  Alcotest.(check int) "8 records" 8 (List.length records);
  List.iter
    (fun r ->
      Alcotest.(check bool) "best <= every start" true
        (best.Engine.Result.cut <= r.Engine.start_cut))
    records;
  Alcotest.(check bool) "times nonnegative" true
    (List.for_all (fun r -> r.Engine.start_seconds >= 0.) records)

let test_multistart_improves_with_starts () =
  let h = random_instance ~nv:120 ~ne:260 27 in
  let p = Problem.make ~tolerance:0.05 h in
  let best1, _ = Engine.multistart default_fm (Rng.create 28) p ~starts:1 in
  let best16, _ = Engine.multistart default_fm (Rng.create 28) p ~starts:16 in
  Alcotest.(check bool) "16 starts at least as good as 1" true
    (best16.Engine.Result.cut <= best1.Engine.Result.cut)

let test_clip_corking_detected () =
  (* reported CLIP (no corking fix) on an instance with a macro at the
     head of the zero bucket: corking events must be observed *)
  let weights = Array.make 40 1 in
  weights.(0) <- 30;
  (* macro has the highest degree -> highest initial gain -> head *)
  let rng = Rng.create 29 in
  let edges =
    Array.append
      (Array.init 20 (fun i -> [| 0; 1 + (i mod 39) |]))
      (Array.init 60 (fun _ -> Rng.sample_distinct rng ~n:3 ~universe:40))
  in
  let h = H.create ~num_vertices:40 ~vertex_weights:weights ~edges () in
  let p = Problem.make ~tolerance:0.05 h in
  let r = Fm.run_random_start ~config:Fm_config.reported_clip (Rng.create 30) p in
  Alcotest.(check bool) "corking events observed" true
    (Engine.Result.stat r "corking_events" > Some 0.)

let test_fm_weighted_edges () =
  (* cutting the weight-10 net must be avoided in favour of two
     weight-1 nets: vertices {0,1} vs {2,3}, heavy net {1,2}?  Rather:
     heavy net {0,1}, light nets {0,2} {1,3}: optimum splits {0,1}|{2,3}
     cutting the two light nets (cost 2) instead of the heavy one. *)
  let h =
    H.create ~num_vertices:4 ~edge_weights:[| 10; 1; 1 |]
      ~edges:[| [| 0; 1 |]; [| 0; 2 |]; [| 1; 3 |] |]
      ()
  in
  let p = Problem.make ~tolerance:0.0 h in
  let r = Fm.run_random_start (Rng.create 50) p in
  Alcotest.(check int) "avoids the heavy net" 2 r.Engine.Result.cut;
  Alcotest.(check bool) "0 and 1 together" true
    (Bipartition.side r.Engine.Result.solution 0 = Bipartition.side r.Engine.Result.solution 1)

let test_fm_first_move_is_highest_gain () =
  (* star around vertex 0: moving 0 uncuts every cut net, so from a
     solution where 0 is alone on its side, FM's first applied move is
     vertex 0 and the result is cut 0 *)
  let h =
    H.create ~num_vertices:5
      ~edges:[| [| 0; 1 |]; [| 0; 2 |]; [| 0; 3 |]; [| 0; 4 |] |]
      ()
  in
  let p = Problem.make ~tolerance:0.8 h in
  let initial = Bipartition.make h [| 0; 1; 1; 1; 1 |] in
  let r = Fm.run (Rng.create 51) p initial in
  Alcotest.(check int) "fully uncut" 0 r.Engine.Result.cut

let test_fm_empty_free_set () =
  (* everything fixed: FM must return the initial solution unchanged *)
  let h = random_instance 52 in
  let fixed = Array.init 60 (fun v -> v mod 2) in
  let p = Problem.make ~fixed ~tolerance:0.10 h in
  let initial = Initial.random (Rng.create 53) p in
  let r = Fm.run (Rng.create 54) p initial in
  Alcotest.(check bool) "solution unchanged" true
    (Bipartition.equal initial r.Engine.Result.solution);
  Alcotest.(check (option (float 0.))) "no moves" (Some 0.)
    (Engine.Result.stat r "moves")

let test_random_insertion_deterministic () =
  let h = random_instance 55 in
  let p = Problem.make ~tolerance:0.05 h in
  let config = { Fm_config.default with Fm_config.insertion = Fm_config.Random } in
  let a = Fm.run_random_start ~config (Rng.create 56) p in
  let b = Fm.run_random_start ~config (Rng.create 56) p in
  Alcotest.(check int) "random insertion still seed-deterministic" a.Engine.Result.cut b.Engine.Result.cut

let prop_fm_cut_always_consistent =
  QCheck.Test.make ~name:"fm incremental cut equals recomputed cut" ~count:60
    QCheck.(triple small_int (int_range 8 80) bool)
    (fun (seed, nv, clip) ->
      let h = random_instance ~nv ~ne:(2 * nv) seed in
      let p = Problem.make ~tolerance:0.10 h in
      let config =
        {
          Fm_config.default with
          Fm_config.engine = (if clip then Fm_config.Clip_fm else Fm_config.Lifo_fm);
        }
      in
      let r = Fm.run_random_start ~config (Rng.create (seed + 1)) p in
      r.Engine.Result.cut = Bipartition.cut h r.Engine.Result.solution)

let prop_fm_result_legal =
  QCheck.Test.make ~name:"fm results are balance-legal" ~count:60
    QCheck.(pair small_int (int_range 10 80))
    (fun (seed, nv) ->
      let h = random_instance ~nv ~ne:(2 * nv) seed in
      let p = Problem.make ~tolerance:0.10 h in
      let r = Fm.run_random_start (Rng.create seed) p in
      r.Engine.Result.legal)

(* instances with nets up to 8 pins, so the all-deltas-zero shortcut in
   apply_move actually fires (it needs nets with >= 5 pins) *)
let random_instance_large_nets ?(nv = 60) ?(ne = 120) seed =
  let rng = Rng.create seed in
  let edges =
    Array.init ne (fun _ ->
        Rng.sample_distinct rng ~n:(2 + Rng.int rng 7) ~universe:nv)
  in
  H.create ~num_vertices:nv ~edges ()

let prop_fast_path_never_changes_results =
  (* the zero-delta shortcut must be invisible: sound under
     Nonzero_only, and never firing under All_delta_gain (this locks in
     the policy guard — removing it would make the two runs diverge) *)
  QCheck.Test.make ~name:"zero-delta fast path never changes results" ~count:50
    QCheck.(quad small_int (int_range 10 60) bool bool)
    (fun (seed, nv, clip, all_delta) ->
      let h = random_instance_large_nets ~nv ~ne:(2 * nv) seed in
      let p = Problem.make ~tolerance:0.10 h in
      let config =
        {
          Fm_config.default with
          Fm_config.engine =
            (if clip then Fm_config.Clip_fm else Fm_config.Lifo_fm);
          Fm_config.update =
            (if all_delta then Fm_config.All_delta_gain
             else Fm_config.Nonzero_only);
        }
      in
      let run () = Fm.run_random_start ~config (Rng.create (seed + 7)) p in
      let finally () = Fm.zero_delta_fast_path := true in
      Fun.protect ~finally (fun () ->
          Fm.zero_delta_fast_path := false;
          let off = run () in
          Fm.zero_delta_fast_path := true;
          let on = run () in
          on.Engine.Result.cut = off.Engine.Result.cut
          && Bipartition.equal on.Engine.Result.solution off.Engine.Result.solution
          && Engine.Result.stat on "moves" = Engine.Result.stat off "moves"))

(* [f ()] on a freshly spawned domain, whose workspace slot is empty *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let same_result (x : Engine.Result.t) (y : Engine.Result.t) =
  x.Engine.Result.cut = y.Engine.Result.cut
  && Bipartition.equal x.Engine.Result.solution y.Engine.Result.solution
  && x.Engine.Result.stats = y.Engine.Result.stats

let prop_workspace_reuse_bit_identical =
  (* a domain whose workspace was first warmed by a larger instance
     under a different insertion order must give exactly the results of
     a freshly spawned domain: same cuts, same solutions, same stats *)
  QCheck.Test.make ~name:"workspace reuse is bit-identical" ~count:50
    QCheck.(quad small_int (int_range 10 60) bool bool)
    (fun (seed, nv, clip, random_insertion) ->
      let h = random_instance_large_nets ~nv ~ne:(2 * nv) seed in
      let p = Problem.make ~tolerance:0.10 h in
      let config =
        {
          Fm_config.default with
          Fm_config.engine =
            (if clip then Fm_config.Clip_fm else Fm_config.Lifo_fm);
          Fm_config.insertion =
            (if random_insertion then Fm_config.Random else Fm_config.Lifo);
        }
      in
      let two_runs () =
        let rng = Rng.create (seed + 3) in
        let r1 = Fm.run_random_start ~config rng p in
        let r2 = Fm.run_random_start ~config rng p in
        (r1, r2)
      in
      let a1, a2 = on_fresh_domain two_runs in
      let b1, b2 =
        on_fresh_domain (fun () ->
            let big =
              random_instance_large_nets ~nv:(nv + 40) ~ne:((2 * nv) + 100)
                (seed + 1)
            in
            let warm =
              {
                config with
                Fm_config.insertion =
                  (if random_insertion then Fm_config.Fifo else Fm_config.Random);
              }
            in
            ignore
              (Fm.run_random_start ~config:warm (Rng.create seed)
                 (Problem.make ~tolerance:0.10 big));
            two_runs ())
      in
      same_result a1 b1 && same_result a2 b2)

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  let finally () =
    Telemetry.reset ();
    Telemetry.disable ()
  in
  Fun.protect ~finally f

let workspace_counts () =
  ( Metrics.counter_value "fm.workspace_creates",
    Metrics.counter_value "fm.workspace_reuses" )

let test_undersized_slot_regrows () =
  (* a run that outgrows the domain's workspace replaces it once;
     smaller runs afterwards reuse the grown one *)
  let small = Problem.make ~tolerance:0.10 (random_instance ~nv:10 ~ne:12 70) in
  let big = Problem.make ~tolerance:0.10 (random_instance ~nv:40 ~ne:80 71) in
  with_telemetry (fun () ->
      on_fresh_domain (fun () ->
          List.iter
            (fun p -> ignore (Fm.run_random_start (Rng.create 2) p))
            [ small; big; small; big ]);
      let creates, reuses = workspace_counts () in
      Alcotest.(check int) "created, then grown once" 2 creates;
      Alcotest.(check int) "later runs reuse" 2 reuses)

let test_cancelled_run_leaves_slot_reusable () =
  (* cancellation raises at a pass boundary, leaving the slot with a
     finished pass's counts, stamps and container contents; the next run
     on that domain must not see any of it *)
  let p = Problem.make ~tolerance:0.05 (random_instance ~nv:80 ~ne:160 74) in
  let run () = Fm.run_random_start (Rng.create 75) p in
  let fresh = on_fresh_domain run in
  let after_cancel =
    on_fresh_domain (fun () ->
        let polls = ref 0 in
        let hook () =
          incr polls;
          !polls > 1
        in
        (match Cancel.with_hook hook run with
         | _ -> Alcotest.fail "run was not cancelled"
         | exception Cancel.Cancelled -> ());
        Alcotest.(check int) "cancelled after the first pass" 2 !polls;
        run ())
  in
  Alcotest.(check bool) "same as a fresh domain" true
    (same_result fresh after_cancel)

let test_multistart_zero_allocation_metrics () =
  (* the acceptance check: a domain allocates one workspace, and every
     start after that reuses it *)
  with_telemetry (fun () ->
      let h = random_instance ~nv:80 ~ne:160 72 in
      let p = Problem.make ~tolerance:0.05 h in
      on_fresh_domain (fun () ->
          let _ = Engine.multistart default_fm (Rng.create 73) p ~starts:100 in
          let c0, r0 = workspace_counts () in
          Alcotest.(check int) "a cold domain allocates once" 1 c0;
          Alcotest.(check int) "its other starts reuse" 99 r0;
          let _ = Engine.multistart default_fm (Rng.create 74) p ~starts:100 in
          let c1, r1 = workspace_counts () in
          Alcotest.(check int) "a warm domain allocates nothing" 0 (c1 - c0);
          Alcotest.(check int) "every start reuses it" 100 (r1 - r0));
      Alcotest.(check bool) "later passes repaired incrementally" true
        (Metrics.counter_value "fm.incremental_repairs" > 0))

let prop_fm_no_worse_than_initial =
  QCheck.Test.make ~name:"fm never returns worse than a legal initial" ~count:40
    QCheck.(pair small_int (int_range 10 60))
    (fun (seed, nv) ->
      let h = random_instance ~nv ~ne:(2 * nv) seed in
      let p = Problem.make ~tolerance:0.10 h in
      let rng = Rng.create seed in
      let initial = Initial.random rng p in
      let c0 = Bipartition.cut h initial in
      let r = Fm.run rng p initial in
      (not (Bipartition.is_legal initial p.Problem.balance)) || r.Engine.Result.cut <= c0)

let () =
  Alcotest.run "fm"
    [
      ( "gain container",
        [
          Alcotest.test_case "insert/mem/key" `Quick test_gc_insert_mem_key;
          Alcotest.test_case "remove" `Quick test_gc_remove;
          Alcotest.test_case "lifo order" `Quick test_gc_lifo_order;
          Alcotest.test_case "fifo order" `Quick test_gc_fifo_order;
          Alcotest.test_case "max tracking" `Quick test_gc_max_bucket_tracking;
          Alcotest.test_case "negative keys" `Quick test_gc_negative_keys;
          Alcotest.test_case "update key" `Quick test_gc_update_key;
          Alcotest.test_case "refresh (lifo)" `Quick test_gc_refresh_lifo_moves_to_head;
          Alcotest.test_case "refresh (fifo)" `Quick test_gc_refresh_fifo_moves_to_tail;
          Alcotest.test_case "sides independent" `Quick test_gc_sides_independent;
          Alcotest.test_case "clear" `Quick test_gc_clear;
          Alcotest.test_case "drain and refill" `Quick test_gc_drain_and_refill;
          Alcotest.test_case "ops counters disjoint" `Quick
            test_gc_ops_counters_disjoint;
          Alcotest.test_case "select skip-side" `Quick test_gc_select_skip_side;
          Alcotest.test_case "select skip-bucket" `Quick test_gc_select_skip_bucket;
          Alcotest.test_case "select scan-bucket" `Quick test_gc_select_scan_bucket;
          Alcotest.test_case "select empty" `Quick test_gc_select_empty;
        ] );
      ( "fm engine",
        [
          Alcotest.test_case "finds optimal cut" `Quick test_fm_finds_small_cut;
          Alcotest.test_case "cut consistency" `Quick test_fm_cut_consistency;
          Alcotest.test_case "improves initial" `Quick test_fm_improves_initial;
          Alcotest.test_case "input not mutated" `Quick test_fm_does_not_mutate_initial;
          Alcotest.test_case "fixed vertices" `Quick test_fm_respects_fixed;
          Alcotest.test_case "oversized excluded" `Quick test_fm_oversized_never_moves;
          Alcotest.test_case "all config combinations" `Slow
            test_fm_all_configs_produce_valid_results;
          Alcotest.test_case "pass-best policies" `Quick test_fm_pass_best_policies;
          Alcotest.test_case "illegal-head policies" `Quick
            test_fm_illegal_head_policies;
          Alcotest.test_case "stats populated" `Quick test_fm_stats_populated;
          Alcotest.test_case "deterministic" `Quick test_fm_deterministic;
          Alcotest.test_case "corking detected" `Quick test_clip_corking_detected;
          Alcotest.test_case "weighted edges" `Quick test_fm_weighted_edges;
          Alcotest.test_case "highest gain first" `Quick
            test_fm_first_move_is_highest_gain;
          Alcotest.test_case "all fixed" `Quick test_fm_empty_free_set;
          Alcotest.test_case "random insertion deterministic" `Quick
            test_random_insertion_deterministic;
        ] );
      ( "multistart",
        [
          Alcotest.test_case "records and best" `Quick test_multistart;
          Alcotest.test_case "more starts help" `Quick
            test_multistart_improves_with_starts;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "undersized slot regrows" `Quick
            test_undersized_slot_regrows;
          Alcotest.test_case "cancelled run leaves slot reusable" `Quick
            test_cancelled_run_leaves_slot_reusable;
          Alcotest.test_case "multistart zero-allocation metrics" `Quick
            test_multistart_zero_allocation_metrics;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_gc_random_ops;
          QCheck_alcotest.to_alcotest prop_fm_cut_always_consistent;
          QCheck_alcotest.to_alcotest prop_fm_result_legal;
          QCheck_alcotest.to_alcotest prop_fm_no_worse_than_initial;
          QCheck_alcotest.to_alcotest prop_fast_path_never_changes_results;
          QCheck_alcotest.to_alcotest prop_workspace_reuse_bit_identical;
        ] );
    ]
