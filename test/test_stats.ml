module Rng = Hypart_rng.Rng
module D = Hypart_stats.Descriptive
module Sig = Hypart_stats.Significance
module Bsf = Hypart_stats.Bsf
module Pareto = Hypart_stats.Pareto
module Ranking = Hypart_stats.Ranking

(* -- Descriptive -- *)

let test_mean_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (D.mean xs);
  (* sample variance with n-1: sum of squares = 32, /7 *)
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (D.variance xs);
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (32.0 /. 7.0)) (D.stddev xs)

let test_variance_degenerate () =
  Alcotest.(check (float 1e-9)) "single point" 0.0 (D.variance [| 5.0 |]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (D.variance [||])

let test_quantile () =
  let xs = [| 3.0; 1.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "min" 1.0 (D.quantile xs 0.0);
  Alcotest.(check (float 1e-9)) "max" 4.0 (D.quantile xs 1.0);
  Alcotest.(check (float 1e-9)) "median interpolates" 2.5 (D.median xs);
  Alcotest.(check (float 1e-9)) "odd median exact" 2.0 (D.median [| 3.0; 1.0; 2.0 |])

let test_summarize () =
  let s = D.summarize [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "n" 3 s.D.n;
  Alcotest.(check (float 1e-9)) "mean" 2.0 s.D.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.D.min;
  Alcotest.(check (float 1e-9)) "max" 3.0 s.D.max;
  Alcotest.check_raises "empty rejected" (Invalid_argument "x") (fun () ->
      try ignore (D.summarize [||])
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_min_avg_format () =
  Alcotest.(check string) "paper cell format" "333/639"
    (D.min_avg [| 639; 333; 945 |]);
  Alcotest.(check string) "rounding" "10/11" (D.min_avg [| 10; 11; 11 |])

(* -- Significance -- *)

let test_t_cdf_known_values () =
  (* t distribution with df=10: P(T <= 2.228) ~ 0.975 *)
  Alcotest.(check (float 2e-3)) "97.5th percentile" 0.975
    (Sig.student_t_cdf ~df:10.0 2.228);
  Alcotest.(check (float 1e-9)) "symmetry at 0" 0.5 (Sig.student_t_cdf ~df:5.0 0.0);
  (* large df approaches normal: P(T <= 1.96) ~ 0.975 *)
  Alcotest.(check (float 2e-3)) "normal limit" 0.975
    (Sig.student_t_cdf ~df:1000.0 1.96)

let test_welch_identical_samples () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let r = Sig.welch_t_test xs (Array.copy xs) in
  Alcotest.(check (float 1e-9)) "t = 0" 0.0 r.Sig.statistic;
  Alcotest.(check bool) "p high" true (r.Sig.p_value > 0.9)

let test_welch_distinct_samples () =
  let xs = Array.init 30 (fun i -> float_of_int i) in
  let ys = Array.init 30 (fun i -> float_of_int i +. 100.0) in
  let r = Sig.welch_t_test xs ys in
  Alcotest.(check bool) "clearly significant" true (r.Sig.p_value < 1e-6);
  Alcotest.(check bool) "direction" true (r.Sig.statistic < 0.0)

let test_welch_constant_samples () =
  let r = Sig.welch_t_test [| 5.0; 5.0 |] [| 5.0; 5.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "equal constants: p = 1" 1.0 r.Sig.p_value;
  let r2 = Sig.welch_t_test [| 5.0; 5.0 |] [| 7.0; 7.0 |] in
  Alcotest.(check (float 1e-9)) "different constants: p = 0" 0.0 r2.Sig.p_value

let test_mann_whitney () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let ys = [| 10.0; 11.0; 12.0; 13.0; 14.0 |] in
  let r = Sig.mann_whitney_u xs ys in
  Alcotest.(check (float 1e-9)) "U = 0 for fully separated" 0.0 r.Sig.statistic;
  Alcotest.(check bool) "significant" true (r.Sig.p_value < 0.02);
  let same = Sig.mann_whitney_u xs (Array.copy xs) in
  Alcotest.(check bool) "identical: not significant" true (same.Sig.p_value > 0.5)

let test_mann_whitney_ties () =
  let xs = [| 1.0; 1.0; 2.0; 2.0 |] and ys = [| 1.0; 2.0; 2.0; 3.0 |] in
  let r = Sig.mann_whitney_u xs ys in
  Alcotest.(check bool) "p in [0,1]" true (r.Sig.p_value >= 0.0 && r.Sig.p_value <= 1.0)

let prop_welch_p_range =
  QCheck.Test.make ~name:"welch p-values always in [0,1]" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 2 20) (float_range (-100.) 100.))
              (list_of_size (QCheck.Gen.int_range 2 20) (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let r = Sig.welch_t_test (Array.of_list xs) (Array.of_list ys) in
      r.Sig.p_value >= 0.0 && r.Sig.p_value <= 1.0)

(* -- BSF -- *)

let test_bsf_curve_steps () =
  let c = Bsf.curve [ (1.0, 10.0); (1.0, 12.0); (1.0, 7.0); (1.0, 9.0) ] in
  Alcotest.(check int) "two improvement points" 2 (List.length c);
  let first = List.hd c in
  Alcotest.(check (float 1e-9)) "first budget" 1.0 first.Bsf.budget;
  Alcotest.(check (float 1e-9)) "first cost" 10.0 first.Bsf.cost;
  let second = List.nth c 1 in
  Alcotest.(check (float 1e-9)) "second budget" 3.0 second.Bsf.budget;
  Alcotest.(check (float 1e-9)) "second cost" 7.0 second.Bsf.cost

let test_bsf_value_at () =
  let c = Bsf.curve [ (1.0, 10.0); (1.0, 7.0) ] in
  Alcotest.(check (float 1e-9)) "before first start" infinity (Bsf.value_at c 0.5);
  Alcotest.(check (float 1e-9)) "after first" 10.0 (Bsf.value_at c 1.5);
  Alcotest.(check (float 1e-9)) "after second" 7.0 (Bsf.value_at c 10.0)

let test_bsf_expected_monotone () =
  let rng = Rng.create 1 in
  let records =
    Array.init 30 (fun i -> (0.5 +. (float_of_int (i mod 3) /. 10.0), float_of_int (50 + (i * 7 mod 40))))
  in
  let budgets = [| 1.0; 2.0; 4.0; 8.0 |] in
  let curve = Bsf.expected_curve rng ~records ~budgets ~resamples:100 in
  for i = 1 to Array.length curve - 1 do
    Alcotest.(check bool) "expected BSF non-increasing" true (curve.(i) <= curve.(i - 1))
  done

let test_bsf_expected_reaches_min () =
  let rng = Rng.create 2 in
  let records = [| (0.1, 30.0); (0.1, 20.0); (0.1, 25.0) |] in
  let curve = Bsf.expected_curve rng ~records ~budgets:[| 50.0 |] ~resamples:50 in
  Alcotest.(check (float 1e-9)) "huge budget reaches minimum" 20.0 curve.(0)

let test_bsf_quantile_band () =
  let rng = Rng.create 3 in
  let records =
    Array.init 40 (fun i -> (0.2, float_of_int (100 + (i * 13 mod 50))))
  in
  let budgets = [| 1.0; 5.0 |] in
  let band = Bsf.quantile_band rng ~records ~budgets ~resamples:100 in
  for i = 0 to 1 do
    Alcotest.(check bool) "band ordered" true
      (band.Bsf.p10.(i) <= band.Bsf.median.(i)
      && band.Bsf.median.(i) <= band.Bsf.p90.(i))
  done;
  (* the band narrows as the budget grows (more starts to choose from) *)
  Alcotest.(check bool) "narrows with budget" true
    (band.Bsf.p90.(1) -. band.Bsf.p10.(1)
    <= band.Bsf.p90.(0) -. band.Bsf.p10.(0))

(* -- Pareto -- *)

let test_pareto_dominates () =
  let a = { Pareto.label = "a"; cost = 10.0; runtime = 5.0 } in
  let b = { Pareto.label = "b"; cost = 8.0; runtime = 3.0 } in
  let c = { Pareto.label = "c"; cost = 12.0; runtime = 1.0 } in
  Alcotest.(check bool) "b dominates a" true (Pareto.dominates b a);
  Alcotest.(check bool) "a does not dominate b" false (Pareto.dominates a b);
  Alcotest.(check bool) "c does not dominate a (worse cost)" false
    (Pareto.dominates c a)

let test_pareto_frontier () =
  let pts =
    [
      { Pareto.label = "slow-good"; cost = 5.0; runtime = 10.0 };
      { Pareto.label = "fast-bad"; cost = 20.0; runtime = 1.0 };
      { Pareto.label = "dominated"; cost = 21.0; runtime = 5.0 };
      { Pareto.label = "middle"; cost = 10.0; runtime = 4.0 };
    ]
  in
  let f = Pareto.frontier pts in
  let labels = List.map (fun p -> p.Pareto.label) f in
  Alcotest.(check (list string)) "sorted by runtime, dominated removed"
    [ "fast-bad"; "middle"; "slow-good" ] labels

let test_pareto_equal_points_kept () =
  let pts =
    [
      { Pareto.label = "x"; cost = 5.0; runtime = 5.0 };
      { Pareto.label = "y"; cost = 5.0; runtime = 5.0 };
    ]
  in
  Alcotest.(check int) "both kept (strict dominance)" 2
    (List.length (Pareto.frontier pts))

let prop_pareto_sound =
  QCheck.Test.make ~name:"no frontier point is dominated; all others are"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30)
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun pts ->
      let pts =
        List.mapi (fun i (c, r) -> { Pareto.label = i; cost = c; runtime = r }) pts
      in
      let f = Pareto.frontier pts in
      List.for_all
        (fun a -> not (List.exists (fun b -> Pareto.dominates b a) pts))
        f
      && List.for_all
           (fun a ->
             List.memq a f || List.exists (fun b -> Pareto.dominates b a) pts)
           pts)

(* the frontier is a function of the point {e set}: presentation order
   must not change what is kept *)
let prop_pareto_permutation_invariant =
  QCheck.Test.make ~name:"frontier is permutation-invariant" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 30)
           (pair (float_range 0. 100.) (float_range 0. 100.)))
        (int_bound 1000))
    (fun (pts, perm_seed) ->
      let pts =
        List.mapi
          (fun i (c, r) -> { Pareto.label = i; cost = c; runtime = r })
          pts
      in
      let shuffled =
        let a = Array.of_list pts in
        let st = Random.State.make [| perm_seed |] in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      let key p = (p.Pareto.runtime, p.Pareto.cost, p.Pareto.label) in
      let canon f = List.sort compare (List.map key f) in
      canon (Pareto.frontier pts) = canon (Pareto.frontier shuffled))

(* strict dominance is transitive, so every excluded point must be
   dominated by a point that was itself kept — the frontier alone
   justifies every exclusion *)
let prop_pareto_excluded_dominated_by_kept =
  QCheck.Test.make ~name:"every excluded point dominated by a kept point"
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 30)
        (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun pts ->
      let pts =
        List.mapi
          (fun i (c, r) -> { Pareto.label = i; cost = c; runtime = r })
          pts
      in
      let f = Pareto.frontier pts in
      List.for_all
        (fun a ->
          List.memq a f || List.exists (fun b -> Pareto.dominates b a) f)
        pts)

(* equal performance points never dominate each other, so duplicating
   the input duplicates the frontier *)
let prop_pareto_duplicates_retained =
  QCheck.Test.make ~name:"duplicate performance points all retained"
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun pts ->
      let mk tag =
        List.mapi
          (fun i (c, r) -> { Pareto.label = (tag, i); cost = c; runtime = r })
          pts
      in
      let once = mk `A in
      let doubled = once @ mk `B in
      let perf p = (p.Pareto.runtime, p.Pareto.cost) in
      let canon f = List.sort compare (List.map perf f) in
      let expected =
        canon (Pareto.frontier once) @ canon (Pareto.frontier once)
      in
      List.sort compare expected = canon (Pareto.frontier doubled))

(* -- Bootstrap -- *)

module Bootstrap = Hypart_stats.Bootstrap

let test_bootstrap_mean_ci () =
  let rng = Rng.create 1 in
  let xs = Array.init 100 (fun i -> float_of_int (i mod 10)) in
  let ci = Bootstrap.mean_ci rng xs in
  Alcotest.(check (float 1e-9)) "point is the sample mean" 4.5 ci.Bootstrap.point;
  Alcotest.(check bool) "interval brackets the point" true
    (ci.Bootstrap.lo <= 4.5 && 4.5 <= ci.Bootstrap.hi);
  Alcotest.(check bool) "interval is tight for n=100" true
    (ci.Bootstrap.hi -. ci.Bootstrap.lo < 2.0)

let test_bootstrap_narrower_at_lower_level () =
  let rng = Rng.create 2 in
  let xs = Array.init 50 (fun i -> float_of_int i) in
  let wide = Bootstrap.mean_ci ~level:0.99 (Rng.copy rng) xs in
  let narrow = Bootstrap.mean_ci ~level:0.50 (Rng.copy rng) xs in
  Alcotest.(check bool) "50% narrower than 99%" true
    (narrow.Bootstrap.hi -. narrow.Bootstrap.lo
    < wide.Bootstrap.hi -. wide.Bootstrap.lo)

let test_bootstrap_constant_sample () =
  let ci = Bootstrap.mean_ci (Rng.create 3) [| 5.0; 5.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "degenerate lo" 5.0 ci.Bootstrap.lo;
  Alcotest.(check (float 1e-9)) "degenerate hi" 5.0 ci.Bootstrap.hi

let test_bootstrap_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "x") (fun () ->
      try ignore (Bootstrap.mean_ci (Rng.create 1) [||])
      with Invalid_argument _ -> raise (Invalid_argument "x"));
  Alcotest.check_raises "bad level" (Invalid_argument "x") (fun () ->
      try ignore (Bootstrap.mean_ci ~level:1.5 (Rng.create 1) [| 1.0 |])
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* -- Ranking -- *)

let test_ranking_basic () =
  let budgets = [| 1.0; 10.0 |] in
  let curves = [ ("fast", [| 10.0; 9.0 |]); ("strong", [| 50.0; 3.0 |]) ] in
  let rows = Ranking.rank_at_budgets ~budgets ~curves in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  Alcotest.(check string) "fast wins small budgets" "fast"
    (List.hd rows).Ranking.winner;
  Alcotest.(check string) "strong wins large budgets" "strong"
    (List.nth rows 1).Ranking.winner

let test_ranking_tie_first_listed () =
  let rows =
    Ranking.rank_at_budgets ~budgets:[| 1.0 |]
      ~curves:[ ("a", [| 5.0 |]); ("b", [| 5.0 |]) ]
  in
  Alcotest.(check string) "tie goes to first" "a" (List.hd rows).Ranking.winner

let test_ranking_mismatch_rejected () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "x") (fun () ->
      try
        ignore
          (Ranking.rank_at_budgets ~budgets:[| 1.0; 2.0 |] ~curves:[ ("a", [| 5.0 |]) ])
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_dominance_table () =
  let t =
    Ranking.dominance_table ~budgets:[| 1.0 |]
      ~per_instance:
        [ ("i1", [ ("a", [| 1.0 |]); ("b", [| 2.0 |]) ]);
          ("i2", [ ("a", [| 3.0 |]); ("b", [| 2.0 |]) ]) ]
  in
  Alcotest.(check int) "two instances" 2 (List.length t);
  Alcotest.(check string) "i1 winner" "a" (snd (List.hd t)).(0);
  Alcotest.(check string) "i2 winner" "b" (snd (List.nth t 1)).(0)

let () =
  Alcotest.run "stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "degenerate variance" `Quick test_variance_degenerate;
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "min/avg format" `Quick test_min_avg_format;
        ] );
      ( "significance",
        [
          Alcotest.test_case "t cdf known values" `Quick test_t_cdf_known_values;
          Alcotest.test_case "welch identical" `Quick test_welch_identical_samples;
          Alcotest.test_case "welch distinct" `Quick test_welch_distinct_samples;
          Alcotest.test_case "welch constant" `Quick test_welch_constant_samples;
          Alcotest.test_case "mann-whitney" `Quick test_mann_whitney;
          Alcotest.test_case "mann-whitney ties" `Quick test_mann_whitney_ties;
        ] );
      ( "bsf",
        [
          Alcotest.test_case "curve steps" `Quick test_bsf_curve_steps;
          Alcotest.test_case "value_at" `Quick test_bsf_value_at;
          Alcotest.test_case "expected monotone" `Quick test_bsf_expected_monotone;
          Alcotest.test_case "expected reaches min" `Quick test_bsf_expected_reaches_min;
          Alcotest.test_case "quantile band" `Quick test_bsf_quantile_band;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "dominates" `Quick test_pareto_dominates;
          Alcotest.test_case "frontier" `Quick test_pareto_frontier;
          Alcotest.test_case "equal points" `Quick test_pareto_equal_points_kept;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "mean ci" `Quick test_bootstrap_mean_ci;
          Alcotest.test_case "level ordering" `Quick
            test_bootstrap_narrower_at_lower_level;
          Alcotest.test_case "constant sample" `Quick test_bootstrap_constant_sample;
          Alcotest.test_case "invalid" `Quick test_bootstrap_invalid;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "basic" `Quick test_ranking_basic;
          Alcotest.test_case "tie" `Quick test_ranking_tie_first_listed;
          Alcotest.test_case "mismatch" `Quick test_ranking_mismatch_rejected;
          Alcotest.test_case "dominance table" `Quick test_dominance_table;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_welch_p_range;
          QCheck_alcotest.to_alcotest prop_pareto_sound;
          QCheck_alcotest.to_alcotest prop_pareto_permutation_invariant;
          QCheck_alcotest.to_alcotest prop_pareto_excluded_dominated_by_kept;
          QCheck_alcotest.to_alcotest prop_pareto_duplicates_retained;
        ] );
    ]
