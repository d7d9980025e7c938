(* Tests for Noc_util.Stats. *)

module Stats = Noc_util.Stats

let test_mean () =
  Alcotest.(check (float 1e-12)) "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  Alcotest.(check (float 1e-12)) "singleton" 7. (Stats.mean [| 7. |])

let test_variance () =
  (* Population variance of 2, 4, 4, 4, 5, 5, 7, 9 is 4 (classic). *)
  Alcotest.(check (float 1e-12)) "variance" 4.
    (Stats.variance [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]);
  Alcotest.(check (float 1e-12)) "constant data" 0. (Stats.variance [| 3.; 3.; 3. |])

let test_min_max () =
  let arr = [| 3.; -1.; 7.; 0. |] in
  Alcotest.(check (float 0.)) "min" (-1.) (Stats.min_value arr);
  Alcotest.(check (float 0.)) "max" 7. (Stats.max_value arr)

let test_argmin () =
  Alcotest.(check int) "argmin" 1 (Stats.argmin [| 3.; -1.; 7.; 0. |]);
  Alcotest.(check int) "first on ties" 0 (Stats.argmin [| 2.; 2.; 2. |])

let test_fequal () =
  Alcotest.(check bool) "exact" true (Stats.fequal 1. 1.);
  Alcotest.(check bool) "within absolute eps" true (Stats.fequal ~eps:1e-6 0. 1e-9);
  Alcotest.(check bool) "within relative eps" true
    (Stats.fequal ~eps:1e-6 1e12 (1e12 +. 1.));
  Alcotest.(check bool) "different" false (Stats.fequal 1. 2.)

let test_median () =
  Alcotest.(check (float 1e-12)) "odd length" 3. (Stats.median [| 5.; 3.; 1. |]);
  Alcotest.(check (float 1e-12)) "even length interpolates" 2.5
    (Stats.median [| 4.; 1.; 2.; 3. |]);
  Alcotest.(check (float 1e-12)) "singleton" 9. (Stats.median [| 9. |])

let test_percentile () =
  let arr = [| 10.; 20.; 30.; 40. |] in
  Alcotest.(check (float 1e-12)) "p0 is min" 10. (Stats.percentile arr ~p:0.);
  Alcotest.(check (float 1e-12)) "p100 is max" 40. (Stats.percentile arr ~p:100.);
  (* rank = 0.95 * 3 = 2.85: interpolate between 30 and 40. *)
  Alcotest.(check (float 1e-9)) "p95 interpolates" 38.5 (Stats.percentile arr ~p:95.);
  Alcotest.(check (float 1e-12)) "input left unsorted" 38.5
    (Stats.percentile [| 40.; 10.; 30.; 20. |] ~p:95.);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p must lie in [0, 100]") (fun () ->
      ignore (Stats.percentile arr ~p:101.))

let test_percentile_sorted () =
  let sorted = [| 1.; 2.; 3. |] in
  Alcotest.(check (float 1e-12)) "p50 on sorted" 2.
    (Stats.percentile_sorted sorted ~p:50.);
  Alcotest.(check (float 1e-12)) "p25 interpolates" 1.5
    (Stats.percentile_sorted sorted ~p:25.)

let nonempty_floats =
  QCheck.(list_of_size (Gen.int_range 1 20) (float_range (-1000.) 1000.))

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile lies between min and max" ~count:300
    QCheck.(pair nonempty_floats (float_range 0. 100.))
    (fun (floats, p) ->
      let arr = Array.of_list floats in
      let v = Stats.percentile arr ~p in
      Stats.min_value arr <= v && v <= Stats.max_value arr)

let qcheck_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:300
    QCheck.(triple nonempty_floats (float_range 0. 100.) (float_range 0. 100.))
    (fun (floats, p1, p2) ->
      let arr = Array.of_list floats in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile arr ~p:lo <= Stats.percentile arr ~p:hi)

let qcheck_percentile_endpoints =
  QCheck.Test.make ~name:"p0/p100 are the extremes, p50 the median" ~count:300
    nonempty_floats (fun floats ->
      let arr = Array.of_list floats in
      Stats.percentile arr ~p:0. = Stats.min_value arr
      && Stats.percentile arr ~p:100. = Stats.max_value arr
      && Stats.median arr = Stats.percentile arr ~p:50.)

let qcheck_variance_nonneg =
  QCheck.Test.make ~name:"variance is non-negative" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range (-1000.) 1000.))
    (fun floats -> Stats.variance (Array.of_list floats) >= 0.)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "variance" `Quick test_variance;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "argmin" `Quick test_argmin;
    Alcotest.test_case "fequal" `Quick test_fequal;
    Alcotest.test_case "median" `Quick test_median;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile (pre-sorted)" `Quick test_percentile_sorted;
    QCheck_alcotest.to_alcotest qcheck_variance_nonneg;
    QCheck_alcotest.to_alcotest qcheck_percentile_bounds;
    QCheck_alcotest.to_alcotest qcheck_percentile_monotone;
    QCheck_alcotest.to_alcotest qcheck_percentile_endpoints;
  ]
