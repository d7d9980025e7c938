(* Tests for Noc_util.Timeline — the schedule-table substrate. *)

module Timeline = Noc_util.Timeline
module Interval = Noc_util.Interval

let iv start stop = Interval.make ~start ~stop

let test_empty_gap () =
  let tl = Timeline.create () in
  Alcotest.(check (float 0.)) "gap at origin" 0.
    (Timeline.earliest_gap tl ~after:0. ~duration:5.);
  Alcotest.(check (float 0.)) "gap after release" 7.
    (Timeline.earliest_gap tl ~after:7. ~duration:5.)

let test_gap_before_first_busy () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 10. 20.);
  Alcotest.(check (float 0.)) "fits before" 0.
    (Timeline.earliest_gap tl ~after:0. ~duration:10.);
  Alcotest.(check (float 0.)) "does not fit before" 20.
    (Timeline.earliest_gap tl ~after:0. ~duration:11.)

let test_gap_between_busy () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 0. 10.);
  Timeline.reserve tl (iv 15. 25.);
  Alcotest.(check (float 0.)) "fits in hole" 10.
    (Timeline.earliest_gap tl ~after:0. ~duration:5.);
  Alcotest.(check (float 0.)) "too large for hole" 25.
    (Timeline.earliest_gap tl ~after:0. ~duration:6.)

let test_gap_respects_after () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 0. 10.);
  Timeline.reserve tl (iv 15. 25.);
  Alcotest.(check (float 0.)) "after inside hole" 12.
    (Timeline.earliest_gap tl ~after:12. ~duration:3.);
  Alcotest.(check (float 0.)) "after pushes past hole" 25.
    (Timeline.earliest_gap tl ~after:12. ~duration:4.)

let test_zero_duration_gap () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 0. 10.);
  Alcotest.(check (float 0.)) "zero duration returns after" 5.
    (Timeline.earliest_gap tl ~after:5. ~duration:0.)

let test_reserve_overlap_rejected () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 0. 10.);
  Alcotest.(check bool) "overlap raises" true
    (try
       Timeline.reserve tl (iv 5. 15.);
       false
     with Invalid_argument _ -> true)

let test_reserve_touching_ok () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 0. 10.);
  Timeline.reserve tl (iv 10. 20.);
  Alcotest.(check int) "both reserved" 2 (List.length (Timeline.busy tl))

let test_reserve_empty_ignored () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 5. 5.);
  Alcotest.(check int) "nothing recorded" 0 (List.length (Timeline.busy tl))

(* Releases slot [i] of [tl] as a one-entry journal stretch; returns
   [Timeline.release_slots]'s result: 0 when released, 1 when the slot
   does not hold [[start, stop)]. *)
let release_at tl i start stop =
  Timeline.release_slots [| tl |] ~ids:[| 0 |] ~slots:[| i |] ~starts:[| start |]
    ~stops:[| stop |] 0 1

let test_release () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 0. 10.);
  Timeline.reserve tl (iv 20. 30.);
  Alcotest.(check int) "released" 0 (release_at tl 0 0. 10.);
  Alcotest.(check int) "one left" 1 (List.length (Timeline.busy tl));
  Alcotest.(check (float 0.)) "freed slot usable" 0.
    (Timeline.earliest_gap tl ~after:0. ~duration:10.)

let test_release_unknown_rejected () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 0. 10.);
  Alcotest.(check int) "unknown release stops at its entry" 1 (release_at tl 0 2. 4.);
  Alcotest.(check int) "nothing released" 1 (List.length (Timeline.busy tl))

let test_is_free () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 5. 10.);
  Alcotest.(check bool) "free before" true (Timeline.is_free tl (iv 0. 5.));
  Alcotest.(check bool) "busy" false (Timeline.is_free tl (iv 7. 8.));
  Alcotest.(check bool) "empty always free" true (Timeline.is_free tl (iv 7. 7.))

let test_utilisation () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 0. 25.);
  Timeline.reserve tl (iv 50. 75.);
  Alcotest.(check (float 1e-9)) "half busy" 0.5 (Timeline.utilisation tl ~horizon:100.);
  Alcotest.(check (float 1e-9)) "clipped to horizon" 1.
    (Timeline.utilisation tl ~horizon:20.)

let test_span () =
  let tl = Timeline.create () in
  Alcotest.(check (float 0.)) "empty span" 0. (Timeline.span tl);
  Timeline.reserve tl (iv 5. 12.);
  Timeline.reserve tl (iv 0. 3.);
  Alcotest.(check (float 0.)) "span" 12. (Timeline.span tl)

let test_merged_busy () =
  let a = Timeline.create () and b = Timeline.create () in
  Timeline.reserve a (iv 0. 5.);
  Timeline.reserve a (iv 8. 12.);
  Timeline.reserve b (iv 4. 9.);
  let merged = Timeline.merged_busy [ a; b ] ~after:0. in
  (* 0-5, 4-9, 8-12 coalesce into a single 0-12 block. *)
  Alcotest.(check int) "coalesced" 1 (List.length merged);
  let block = List.hd merged in
  Alcotest.(check (float 0.)) "start" 0. block.Interval.start;
  Alcotest.(check (float 0.)) "stop" 12. block.Interval.stop

let test_merged_busy_filters_after () =
  let a = Timeline.create () in
  Timeline.reserve a (iv 0. 5.);
  Timeline.reserve a (iv 10. 15.);
  Alcotest.(check int) "early slots dropped" 1
    (List.length (Timeline.merged_busy [ a ] ~after:6.))

(* The start [reserve_gap_multi] takes for a window of [duration] at or
   after [after]. *)
let multi_gap tls ~after ~duration =
  let window = [| after; duration |] in
  Timeline.reserve_gap_multi tls (Array.make (Array.length tls) 0) window;
  window.(0)

let test_multi_gap () =
  let tables () =
    let a = Timeline.create () and b = Timeline.create () in
    Timeline.reserve a (iv 0. 10.);
    Timeline.reserve b (iv 12. 20.);
    [| a; b |]
  in
  (* Free on both only in [10, 12) and after 20. *)
  Alcotest.(check (float 0.)) "short fits between" 10.
    (multi_gap (tables ()) ~after:0. ~duration:2.);
  Alcotest.(check (float 0.)) "long goes after both" 20.
    (multi_gap (tables ()) ~after:0. ~duration:3.)

let test_multi_gap_empty_list () =
  Alcotest.(check (float 0.)) "no timelines: immediately" 4.
    (multi_gap [||] ~after:4. ~duration:100.)

(* Property: repeatedly reserving at the earliest gap never raises and
   leaves the timeline consistent (disjoint sorted slots). *)
let qcheck_greedy_reservations =
  let gen = QCheck.(pair small_int (list (pair (int_range 1 20) (int_range 0 30)))) in
  QCheck.Test.make ~name:"greedy earliest-gap reservations stay disjoint" ~count:200 gen
    (fun (_seed, jobs) ->
      let tl = Timeline.create () in
      List.iter
        (fun (dur, after) ->
          let dur = float_of_int dur and after = float_of_int after in
          let start = Timeline.earliest_gap tl ~after ~duration:dur in
          Timeline.reserve tl (iv start (start +. dur)))
        jobs;
      let rec disjoint_sorted = function
        | a :: (b :: _ as rest) ->
          a.Interval.stop <= b.Interval.start && disjoint_sorted rest
        | [ _ ] | [] -> true
      in
      disjoint_sorted (Timeline.busy tl))

(* Property: the earliest gap is minimal — no earlier feasible start at
   integer offsets. *)
let qcheck_gap_minimal =
  let gen = QCheck.(pair (list (pair (int_range 0 40) (int_range 1 10))) (int_range 1 10)) in
  QCheck.Test.make ~name:"earliest gap is locally minimal" ~count:200 gen
    (fun (slots, dur) ->
      let tl = Timeline.create () in
      List.iter
        (fun (start, len) ->
          let start = float_of_int start and len = float_of_int len in
          if Timeline.is_free tl (iv start (start +. len)) then
            Timeline.reserve tl (iv start (start +. len)))
        slots;
      let duration = float_of_int dur in
      let gap = Timeline.earliest_gap tl ~after:0. ~duration in
      (* The found slot itself is free... *)
      Timeline.is_free tl (iv gap (gap +. duration))
      (* ...and every integer point strictly before it fails. *)
      && (let ok = ref true in
          let p = ref 0. in
          while !p < gap && !ok do
            if Timeline.is_free tl (iv !p (!p +. duration)) then ok := false;
            p := !p +. 1.
          done;
          !ok))

(* A release undoes its reservation's version too, so a probe that
   reserves and rolls back leaves every version it moved as it was. *)
let test_version_restored () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 0. 10.);
  Timeline.reserve tl (iv 20. 30.);
  let before = Timeline.version tl in
  let tls = [| tl |] and ids = [| 0 |] and slots = [| Timeline.slot tl 12. |] in
  let starts = [| 12. |] and stops = [| 15. |] in
  Alcotest.(check int) "reserved" 1 (Timeline.reserve_slots tls ~ids ~slots ~starts ~stops 0 1);
  Alcotest.(check bool) "a reservation moves the version" true
    (Timeline.version tl <> before);
  Alcotest.(check int) "released" 0 (Timeline.release_slots tls ~ids ~slots ~starts ~stops 0 1);
  Alcotest.(check int) "its release moves it back" before (Timeline.version tl)

(* Property: over random traces of reservations and releases, the
   version is the number of busy intervals. *)
let qcheck_version_counts_busy =
  let gen = QCheck.(list (triple bool (int_range 0 60) (int_range 0 8))) in
  QCheck.Test.make ~name:"version counts busy intervals" ~count:200 gen (fun ops ->
      let tl = Timeline.create () in
      List.for_all
        (fun (release, start, len) ->
          let busy = Timeline.busy tl in
          (if release && busy <> [] then begin
             let i = start mod List.length busy in
             let slot = List.nth busy i in
             ignore (release_at tl i slot.Interval.start slot.Interval.stop)
           end
           else
             let slot = iv (float_of_int start) (float_of_int (start + len)) in
             if Timeline.is_free tl slot then Timeline.reserve tl slot);
          Timeline.version tl = List.length (Timeline.busy tl))
        ops)

let suite =
  [
    Alcotest.test_case "empty gap" `Quick test_empty_gap;
    Alcotest.test_case "gap before first busy" `Quick test_gap_before_first_busy;
    Alcotest.test_case "gap between busy" `Quick test_gap_between_busy;
    Alcotest.test_case "gap respects after" `Quick test_gap_respects_after;
    Alcotest.test_case "zero duration gap" `Quick test_zero_duration_gap;
    Alcotest.test_case "reserve overlap rejected" `Quick test_reserve_overlap_rejected;
    Alcotest.test_case "reserve touching ok" `Quick test_reserve_touching_ok;
    Alcotest.test_case "reserve empty ignored" `Quick test_reserve_empty_ignored;
    Alcotest.test_case "release" `Quick test_release;
    Alcotest.test_case "release unknown rejected" `Quick test_release_unknown_rejected;
    Alcotest.test_case "is_free" `Quick test_is_free;
    Alcotest.test_case "utilisation" `Quick test_utilisation;
    Alcotest.test_case "span" `Quick test_span;
    Alcotest.test_case "merged busy coalesces" `Quick test_merged_busy;
    Alcotest.test_case "merged busy filters" `Quick test_merged_busy_filters_after;
    Alcotest.test_case "multi-timeline gap" `Quick test_multi_gap;
    Alcotest.test_case "multi gap, empty list" `Quick test_multi_gap_empty_list;
    QCheck_alcotest.to_alcotest qcheck_greedy_reservations;
    Alcotest.test_case "version restored by a release" `Quick test_version_restored;
    QCheck_alcotest.to_alcotest qcheck_gap_minimal;
    QCheck_alcotest.to_alcotest qcheck_version_counts_busy;
  ]
