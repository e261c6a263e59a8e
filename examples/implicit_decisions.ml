(* §2.2 of the paper: implicit implementation decisions — tie-breaking
   and zero-delta-gain handling — swing flat FM results by amounts that
   dwarf typical published algorithm improvements.  This example walks
   the decision matrix on one instance and reports the dynamic range,
   plus a significance test between the best and worst combinations.

   Run with: dune exec examples/implicit_decisions.exe *)

module Rng = Hypart_rng.Rng
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Fm = Hypart_fm.Fm
module Engine = Hypart_engine.Engine
module Fm_config = Hypart_fm.Fm_config
module D = Hypart_stats.Descriptive
module Sig = Hypart_stats.Significance

let runs = 15

let () =
  let problem = Problem.make ~tolerance:0.02 (Suite.instance ~scale:8.0 "ibm01") in
  let combos =
    [
      (Fm_config.All_delta_gain, Fm_config.Away, "All-dg /Away  ");
      (Fm_config.All_delta_gain, Fm_config.Part0, "All-dg /Part0 ");
      (Fm_config.All_delta_gain, Fm_config.Toward, "All-dg /Toward");
      (Fm_config.Nonzero_only, Fm_config.Away, "Nonzero/Away  ");
      (Fm_config.Nonzero_only, Fm_config.Part0, "Nonzero/Part0 ");
      (Fm_config.Nonzero_only, Fm_config.Toward, "Nonzero/Toward");
    ]
  in
  Printf.printf "flat LIFO FM on ibm01 twin, 2%% tolerance, %d runs each\n\n" runs;
  let results =
    List.map
      (fun (update, bias, label) ->
        let config =
          Fm_config.with_bias bias (Fm_config.with_update update Fm_config.strong_lifo)
        in
        let rng = Rng.create 11 in
        let cuts =
          Array.init runs (fun _ -> (Fm.run_random_start ~config rng problem).Engine.Result.cut)
        in
        Printf.printf "  %s  min/avg = %s\n" label (D.min_avg cuts);
        (label, cuts))
      combos
  in
  let avg cuts = D.mean (D.of_ints cuts) in
  let best = List.fold_left (fun a b -> if avg (snd b) < avg (snd a) then b else a)
      (List.hd results) (List.tl results) in
  let worst = List.fold_left (fun a b -> if avg (snd b) > avg (snd a) then b else a)
      (List.hd results) (List.tl results) in
  Printf.printf "\nbest combination:  %s (avg %.1f)\n" (fst best) (avg (snd best));
  Printf.printf "worst combination: %s (avg %.1f)\n" (fst worst) (avg (snd worst));
  Printf.printf "dynamic range: %.2fx — compare with the few percent that\n"
    (avg (snd worst) /. avg (snd best));
  Printf.printf "paper-to-paper algorithm improvements typically claim.\n\n";
  let t =
    Sig.welch_t_test (D.of_ints (snd best)) (D.of_ints (snd worst))
  in
  let u =
    Sig.mann_whitney_u (D.of_ints (snd best)) (D.of_ints (snd worst))
  in
  Printf.printf "Welch t-test best-vs-worst:    t = %+.2f, p = %.4f\n"
    t.Sig.statistic t.Sig.p_value;
  Printf.printf "Mann-Whitney U best-vs-worst:  U = %.0f, p = %.4f\n"
    u.Sig.statistic u.Sig.p_value
