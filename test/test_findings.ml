(* Meta-tests: the paper's qualitative findings, asserted end-to-end at
   small scale.  These are the repository's reason to exist; if a
   refactoring breaks one of these directions, the reproduction is
   broken no matter how green the unit tests are.

   Scales/runs are chosen so each finding is robust at this seed while
   the whole file stays under ~30s. *)

module H = Hypart_hypergraph.Hypergraph
module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Fm = Hypart_fm.Fm
module Fm_config = Hypart_fm.Fm_config
module Ml = Hypart_multilevel.Ml_partitioner
module Engine = Hypart_engine.Engine
module D = Hypart_stats.Descriptive

let runs = 12

let avg_cut config rng problem =
  let cuts =
    Array.init runs (fun _ -> (Fm.run_random_start ~config rng problem).Engine.Result.cut)
  in
  D.mean (D.of_ints cuts)

let problem ?(tolerance = 0.02) name =
  Problem.make ~tolerance (Suite.instance ~scale:16.0 name)

(* Finding 2: Nonzero delta-gain updates beat All∆gain on flat engines. *)
let test_nonzero_beats_alldg () =
  List.iter
    (fun name ->
      let p = problem name in
      let base = Fm_config.strong_lifo in
      let nonzero =
        avg_cut (Fm_config.with_update Fm_config.Nonzero_only base) (Rng.create 1) p
      in
      let alldg =
        avg_cut (Fm_config.with_update Fm_config.All_delta_gain base) (Rng.create 1) p
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: nonzero %.0f < alldg %.0f" name nonzero alldg)
        true (nonzero < alldg))
    [ "ibm01"; "ibm02" ]

(* Finding 3: the multilevel engine compresses the implicit-decision
   dynamic range relative to flat FM. *)
let test_ml_compresses_range () =
  let p = problem "ibm01" in
  let spread engine =
    let cuts =
      List.map
        (fun update ->
          let config = Fm_config.with_update update Fm_config.strong_lifo in
          match engine with
          | `Flat -> avg_cut config (Rng.create 2) p
          | `Ml ->
            let cuts =
              Array.init 6 (fun i ->
                  (Ml.run ~config:{ Ml.default with Ml.fm = config }
                     (Rng.create (20 + i))
                     p)
                    .Engine.Result.cut)
            in
            D.mean (D.of_ints cuts))
        [ Fm_config.All_delta_gain; Fm_config.Nonzero_only ]
    in
    match cuts with
    | [ a; b ] -> Float.abs (a -. b)
    | _ -> assert false
  in
  let flat = spread `Flat and ml = spread `Ml in
  Alcotest.(check bool)
    (Printf.sprintf "ml spread %.1f < flat spread %.1f" ml flat)
    true (ml < flat)

(* Finding 4: the weak "Reported" presets lose to the strong presets. *)
let test_reported_loses () =
  List.iter
    (fun (weak, strong, label) ->
      let p = problem "ibm01" in
      let w = avg_cut weak (Rng.create 3) p in
      let s = avg_cut strong (Rng.create 3) p in
      Alcotest.(check bool)
        (Printf.sprintf "%s: reported %.0f > 1.5x ours %.0f" label w s)
        true
        (w > 1.5 *. s))
    [
      (Fm_config.reported_lifo, Fm_config.strong_lifo, "LIFO");
      (Fm_config.reported_clip, Fm_config.strong_clip, "CLIP");
    ]

(* Finding 5: CLIP without the oversized-cell fix stalls (fewer moves
   per pass) and produces far worse average cuts. *)
let test_corking () =
  let p = problem "ibm01" in
  let stats config =
    let rng = Rng.create 4 in
    let cuts = Array.make runs 0 and moves = ref 0. and passes = ref 0. in
    for i = 0 to runs - 1 do
      let r = Fm.run_random_start ~config rng p in
      cuts.(i) <- r.Engine.Result.cut;
      moves := !moves +. Option.get (Engine.Result.stat r "moves");
      passes := !passes +. Option.get (Engine.Result.stat r "passes")
    done;
    (D.mean (D.of_ints cuts), !moves /. !passes)
  in
  let corked_avg, corked_mpp = stats Fm_config.reported_clip in
  let fixed_avg, fixed_mpp = stats Fm_config.strong_clip in
  Alcotest.(check bool)
    (Printf.sprintf "corked avg %.0f > 2x fixed %.0f" corked_avg fixed_avg)
    true
    (corked_avg > 2.0 *. fixed_avg);
  Alcotest.(check bool)
    (Printf.sprintf "corked moves/pass %.0f < fixed %.0f" corked_mpp fixed_mpp)
    true (corked_mpp < fixed_mpp)

(* Finding 6: more starts never hurt, and CPU grows with starts. *)
let test_multistart_monotone () =
  let p = problem ~tolerance:0.02 "ibm02" in
  let eval starts =
    let rng = Rng.create 5 in
    let (best, _), dt =
      Hypart_engine.Machine.cpu_time (fun () ->
          Engine.multistart Hypart_multilevel.Ml_engines.mlclip rng p ~starts)
    in
    (best.Engine.Result.cut, dt)
  in
  let c1, t1 = eval 1 and c8, t8 = eval 8 in
  Alcotest.(check bool) "8 starts no worse" true (c8 <= c1);
  Alcotest.(check bool) "8 starts cost more CPU" true (t8 > t1)

(* Finding 7 (small-budget side): a flat FM start is much faster than a
   multilevel start — the basis of the flat-first regime. *)
let test_flat_faster_than_ml () =
  let p = problem "ibm03" in
  let time f = snd (Hypart_engine.Machine.cpu_time f) in
  let tf =
    time (fun () -> Fm.run_random_start ~config:Fm_config.strong_lifo (Rng.create 6) p)
  in
  let tm = time (fun () -> Ml.run (Rng.create 6) p) in
  Alcotest.(check bool)
    (Printf.sprintf "flat %.3fs < ml %.3fs" tf tm)
    true (tf < tm)

(* Finding 8: fixed terminals slash start-to-start variance. *)
let test_fixed_terminals_reduce_variance () =
  let h = Suite.instance ~scale:8.0 "ibm01" in
  let n = H.num_vertices h in
  let stddev_with fraction =
    let rng = Rng.create 7 in
    let fixed = Array.make n (-1) in
    let k = int_of_float (fraction *. float_of_int n) in
    Array.iteri
      (fun i v -> fixed.(v) <- i mod 2)
      (Rng.sample_distinct rng ~n:k ~universe:n);
    let p = Problem.make ~fixed ~tolerance:0.10 h in
    let cuts =
      Array.init 16 (fun _ -> (Fm.run_random_start rng p).Engine.Result.cut)
    in
    D.stddev (D.of_ints cuts)
  in
  let free = stddev_with 0.0 and half = stddev_with 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "stddev %.1f (free) > 2x %.1f (50%% fixed)" free half)
    true
    (free > 2.0 *. half)

let () =
  Alcotest.run "paper findings"
    [
      ( "findings",
        [
          Alcotest.test_case "2: nonzero beats all-delta-gain" `Quick
            test_nonzero_beats_alldg;
          Alcotest.test_case "3: ml compresses dynamic range" `Quick
            test_ml_compresses_range;
          Alcotest.test_case "4: reported loses to ours" `Quick test_reported_loses;
          Alcotest.test_case "5: corking" `Quick test_corking;
          Alcotest.test_case "6: multistart monotone" `Quick
            test_multistart_monotone;
          Alcotest.test_case "7: flat faster than ml" `Quick test_flat_faster_than_ml;
          Alcotest.test_case "8: fixed terminals reduce variance" `Quick
            test_fixed_terminals_reduce_variance;
        ] );
    ]
