module Rng = Hypart_rng.Rng

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then distinct := true
  done;
  Alcotest.(check bool) "different seeds differ" true !distinct

let test_copy_independent () =
  let a = Rng.create 7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* advancing the copy does not advance the original *)
  let c = Rng.copy a in
  let expected = Rng.bits64 (Rng.copy a) in
  let _ = Rng.bits64 c in
  Alcotest.(check int64) "original unaffected by copy's draws" expected (Rng.bits64 a)

let test_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_int_covers () =
  let r = Rng.create 4 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 5) <- true
  done;
  Array.iteri (fun i s -> Alcotest.(check bool) (Printf.sprintf "value %d seen" i) true s) seen

let test_int_in () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-3) 3 in
    Alcotest.(check bool) "in range" true (v >= -3 && v <= 3)
  done

let test_float_range () =
  let r = Rng.create 6 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0. && v < 2.5)
  done

let test_float_mean () =
  let r = Rng.create 8 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float r 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_geometric_mean () =
  let r = Rng.create 9 in
  let n = 20_000 and p = 0.4 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric r ~p
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* E[geometric(p)] = 1/p = 2.5 *)
  Alcotest.(check bool) "mean near 1/p" true (abs_float (mean -. 2.5) < 0.1)

let test_geometric_support () =
  let r = Rng.create 10 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) ">= 1" true (Rng.geometric r ~p:0.9 >= 1)
  done

let test_permutation () =
  let r = Rng.create 12 in
  let p = Rng.permutation r 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_permutation_not_identity () =
  let r = Rng.create 13 in
  let p = Rng.permutation r 50 in
  Alcotest.(check bool) "shuffled" true (p <> Array.init 50 (fun i -> i))

let test_sample_distinct_small () =
  let r = Rng.create 14 in
  let s = Rng.sample_distinct r ~n:10 ~universe:1000 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check int) "10 samples" 10 (Array.length s);
  for i = 1 to 9 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done;
  Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 1000)) s

let test_sample_distinct_full () =
  let r = Rng.create 15 in
  let s = Rng.sample_distinct r ~n:20 ~universe:20 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "whole universe" (Array.init 20 (fun i -> i)) sorted

let test_choose_weighted () =
  let r = Rng.create 16 in
  let counts = Array.make 3 0 in
  let w = [| 1.0; 0.0; 3.0 |] in
  for _ = 1 to 10_000 do
    let i = Rng.choose_weighted r w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never chosen" 0 counts.(1);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(0) in
  Alcotest.(check bool) "ratio near 3" true (ratio > 2.5 && ratio < 3.6)

let prop_int_bound =
  QCheck.Test.make ~name:"int respects arbitrary bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_permutation =
  QCheck.Test.make ~name:"permutation is always a bijection" ~count:100
    QCheck.(pair small_int (int_range 1 500))
    (fun (seed, n) ->
      let p = Rng.permutation (Rng.create seed) n in
      let seen = Array.make n false in
      Array.iter (fun v -> seen.(v) <- true) p;
      Array.for_all (fun b -> b) seen)

(* Fnv.add_i32s folds an int32 array exactly as add_int over its
   elements does, whatever their sign and byte length: the lab
   fingerprint of every instance rests on it *)
module Fnv = Hypart_rng.Fnv

let prop_add_i32s =
  let special =
    [| 0l; 1l; -1l; Int32.max_int; Int32.min_int; -256l; 0xFFl; 0x100l; 0xFFFFl;
       0x10000l; 0xFFFFFFl; 0x1000000l |]
  in
  QCheck.Test.make ~name:"add_i32s equals add_int per element" ~count:300
    QCheck.(pair small_nat small_int)
    (fun (n, seed) ->
      let r = Rng.create seed in
      let a = Bigarray.(Array1.create Int32 c_layout n) in
      for i = 0 to n - 1 do
        a.{i} <-
          (match Rng.int r 4 with
           | 0 -> special.(Rng.int r (Array.length special))
           (* below 2^8, 2^16 or 2^24: each folds its zero high bytes
              with one multiply *)
           | 1 -> Int32.of_int (Rng.int r (1 lsl (8 * (1 + Rng.int r 3))))
           | _ -> Int32.of_int (Rng.int r 0x7FFFFFFF - (0x7FFFFFFF / 2)))
      done;
      let start = Fnv.add_int Fnv.offset seed in
      let reference = ref start in
      for i = 0 to n - 1 do
        reference := Fnv.add_int !reference (Int32.to_int a.{i})
      done;
      Fnv.add_i32s start a = !reference)

let () =
  Alcotest.run "rng"
    [
      ( "stream",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
        ] );
      ( "draws",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_int_covers;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric support" `Quick test_geometric_support;
        ] );
      ( "collections",
        [
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "permutation shuffles" `Quick test_permutation_not_identity;
          Alcotest.test_case "sample_distinct sparse" `Quick test_sample_distinct_small;
          Alcotest.test_case "sample_distinct dense" `Quick test_sample_distinct_full;
          Alcotest.test_case "choose_weighted" `Quick test_choose_weighted;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_int_bound;
          QCheck_alcotest.to_alcotest prop_permutation;
          QCheck_alcotest.to_alcotest prop_add_i32s;
        ] );
    ]
