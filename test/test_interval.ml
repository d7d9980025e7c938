(* Tests for Noc_util.Interval. *)

module Interval = Noc_util.Interval

let iv start stop = Interval.make ~start ~stop

let test_make_valid () =
  let i = iv 1. 3. in
  Alcotest.(check (float 0.)) "length" 2. (i.Interval.stop -. i.Interval.start);
  Alcotest.(check bool) "not empty" false (Interval.is_empty i)

let test_make_empty () =
  let i = iv 2. 2. in
  Alcotest.(check bool) "empty" true (Interval.is_empty i);
  Alcotest.(check (float 0.)) "zero length" 0. (i.Interval.stop -. i.Interval.start)

let test_overlaps_basic () =
  Alcotest.(check bool) "overlapping" true (Interval.overlaps (iv 0. 2.) (iv 1. 3.));
  Alcotest.(check bool) "disjoint" false (Interval.overlaps (iv 0. 1.) (iv 2. 3.));
  Alcotest.(check bool) "touching do not overlap" false
    (Interval.overlaps (iv 0. 1.) (iv 1. 2.));
  Alcotest.(check bool) "contained" true (Interval.overlaps (iv 0. 10.) (iv 4. 5.))

let test_empty_overlaps_nothing () =
  Alcotest.(check bool) "empty vs full" false (Interval.overlaps (iv 1. 1.) (iv 0. 2.));
  Alcotest.(check bool) "full vs empty" false (Interval.overlaps (iv 0. 2.) (iv 1. 1.))

let test_merge () =
  let m = Interval.merge (iv 0. 2.) (iv 5. 7.) in
  Alcotest.(check (float 0.)) "start" 0. m.Interval.start;
  Alcotest.(check (float 0.)) "stop" 7. m.Interval.stop

let test_compare_start () =
  Alcotest.(check bool) "earlier first" true
    (Interval.compare_start (iv 0. 1.) (iv 1. 2.) < 0);
  Alcotest.(check bool) "same start, shorter first" true
    (Interval.compare_start (iv 0. 1.) (iv 0. 2.) < 0);
  Alcotest.(check int) "equal" 0 (Interval.compare_start (iv 0. 1.) (iv 0. 1.))

let test_equal () =
  Alcotest.(check bool) "equal" true (Interval.equal (iv 1. 2.) (iv 1. 2.));
  Alcotest.(check bool) "not equal" false (Interval.equal (iv 1. 2.) (iv 1. 3.))

let float_pair =
  QCheck.map
    (fun (a, b) ->
      let a = Float.of_int a /. 10. and b = Float.of_int b /. 10. in
      if a <= b then (a, b) else (b, a))
    QCheck.(pair (int_range 0 1000) (int_range 0 1000))

let qcheck_overlap_symmetric =
  QCheck.Test.make ~name:"overlap is symmetric" ~count:500
    QCheck.(pair float_pair float_pair)
    (fun ((a1, a2), (b1, b2)) ->
      let a = iv a1 a2 and b = iv b1 b2 in
      Interval.overlaps a b = Interval.overlaps b a)

let qcheck_merge_covers =
  QCheck.Test.make ~name:"merge covers both intervals" ~count:500
    QCheck.(pair float_pair float_pair)
    (fun ((a1, a2), (b1, b2)) ->
      let a = iv a1 a2 and b = iv b1 b2 in
      let m = Interval.merge a b in
      m.Interval.start <= a1 && m.Interval.start <= b1 && m.Interval.stop >= a2
      && m.Interval.stop >= b2)

let suite =
  [
    Alcotest.test_case "make valid" `Quick test_make_valid;
    Alcotest.test_case "make empty" `Quick test_make_empty;
    Alcotest.test_case "overlaps basic" `Quick test_overlaps_basic;
    Alcotest.test_case "empty overlaps nothing" `Quick test_empty_overlaps_nothing;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "compare_start" `Quick test_compare_start;
    Alcotest.test_case "equal" `Quick test_equal;
    QCheck_alcotest.to_alcotest qcheck_overlap_symmetric;
    QCheck_alcotest.to_alcotest qcheck_merge_covers;
  ]
