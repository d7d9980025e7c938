(* Tests for Noc_util.Prng. *)

module Prng = Noc_util.Prng

let test_determinism () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false (Prng.int64 a = Prng.int64 b)

let test_int_bounds () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 1_000 do
    let v = Prng.int rng ~bound:13 in
    Alcotest.(check bool) "0 <= v < 13" true (v >= 0 && v < 13)
  done

let test_int_in_bounds () =
  let rng = Prng.create ~seed:8 in
  for _ = 1 to 1_000 do
    let v = Prng.int_in rng ~min:(-5) ~max:5 in
    Alcotest.(check bool) "-5 <= v <= 5" true (v >= -5 && v <= 5)
  done

let test_int_covers_range () =
  let rng = Prng.create ~seed:9 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Prng.int rng ~bound:4) <- true
  done;
  Alcotest.(check bool) "all 4 values appear" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Prng.create ~seed:10 in
  for _ = 1 to 1_000 do
    let v = Prng.float rng ~bound:2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0. && v < 2.5)
  done

let test_float_in_bounds () =
  let rng = Prng.create ~seed:11 in
  for _ = 1 to 1_000 do
    let v = Prng.float_in rng ~min:(-1.) ~max:1. in
    Alcotest.(check bool) "in range" true (v >= -1. && v < 1.)
  done

let test_gaussian_moments () =
  let rng = Prng.create ~seed:12 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Prng.gaussian rng ~mean:3. ~stddev:2.) in
  let mean = Noc_util.Stats.mean samples in
  let stddev = Noc_util.Stats.stddev samples in
  Alcotest.(check bool) "mean close to 3" true (Float.abs (mean -. 3.) < 0.1);
  Alcotest.(check bool) "stddev close to 2" true (Float.abs (stddev -. 2.) < 0.1)

let test_lognormal_positive () =
  let rng = Prng.create ~seed:13 in
  for _ = 1 to 1_000 do
    Alcotest.(check bool) "positive" true (Prng.lognormal_factor rng ~sigma:0.5 > 0.)
  done

let test_split_independent () =
  let a = Prng.create ~seed:5 in
  let b = Prng.split a in
  let x = Prng.int64 a and y = Prng.int64 b in
  Alcotest.(check bool) "split streams differ" true (x <> y)

let test_choose () =
  let rng = Prng.create ~seed:14 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Prng.choose rng arr in
    Alcotest.(check bool) "chosen from array" true (Array.mem v arr)
  done

let test_sample_without_replacement () =
  let rng = Prng.create ~seed:15 in
  for _ = 1 to 50 do
    let sample = Prng.sample_without_replacement rng ~k:5 ~n:20 in
    Alcotest.(check int) "five elements" 5 (List.length sample);
    Alcotest.(check bool) "sorted" true (List.sort compare sample = sample);
    Alcotest.(check int) "distinct" 5
      (List.length (List.sort_uniq compare sample));
    List.iter
      (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 20))
      sample
  done

let test_sample_full () =
  let rng = Prng.create ~seed:16 in
  let sample = Prng.sample_without_replacement rng ~k:10 ~n:10 in
  Alcotest.(check (list int)) "k = n samples everything" (List.init 10 Fun.id) sample

let test_shuffle_permutation () =
  let rng = Prng.create ~seed:17 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let qcheck_int_uniformish =
  QCheck.Test.make ~name:"prng int never out of bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let v = Prng.int rng ~bound in
      v >= 0 && v < bound)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "float_in bounds" `Quick test_float_in_bounds;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "lognormal positive" `Quick test_lognormal_positive;
    Alcotest.test_case "split independent" `Quick test_split_independent;
    Alcotest.test_case "choose" `Quick test_choose;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "sample full range" `Quick test_sample_full;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    QCheck_alcotest.to_alcotest qcheck_int_uniformish;
  ]
