(* Tests for Noc_sched.Validate: every violation class must be caught,
   and a correct schedule must pass. *)

module Schedule = Noc_sched.Schedule
module Validate = Noc_sched.Validate
module Platform = Noc_noc.Platform

let platform =
  Platform.make
    ~topology:(Noc_noc.Topology.mesh ~cols:2 ~rows:2)
    ~pes:(Array.init 4 (fun index -> Noc_noc.Pe.of_kind ~index Noc_noc.Pe.Dsp))
    ~link_bandwidth:100. ()

(* Tasks 0 -> 2, 1 -> 2 with uniform cost 10, energies 1; task 2 has
   deadline 100. *)
let ctg =
  let b = Noc_ctg.Builder.create ~n_pes:4 in
  let t0 = Noc_ctg.Builder.add_uniform_task b ~time:10. ~energy:1. () in
  let t1 = Noc_ctg.Builder.add_uniform_task b ~time:10. ~energy:1. () in
  let t2 = Noc_ctg.Builder.add_uniform_task b ~time:10. ~energy:1. ~deadline:100. () in
  Noc_ctg.Builder.connect b ~src:t0 ~dst:t2 ~volume:500.;
  Noc_ctg.Builder.connect b ~src:t1 ~dst:t2 ~volume:500.;
  Noc_ctg.Builder.build_exn b

let transaction edge src_pe dst_pe start finish =
  {
    Schedule.edge;
    src_pe;
    dst_pe;
    route = Platform.route platform ~src:src_pe ~dst:dst_pe;
    start;
    finish;
  }

(* A correct schedule: t0 on pe 0, t1 on pe 1, t2 on pe 3. Transactions:
   0 (pe0 -> pe3, route 0-1-3) and 1 (pe1 -> pe3, route 1-3). They share
   link 1->3 so they are serialised. *)
let good_schedule () =
  Schedule.make
    ~placements:
      [|
        { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
        { Schedule.task = 1; pe = 1; start = 0.; finish = 10. };
        { Schedule.task = 2; pe = 3; start = 20.; finish = 30. };
      |]
    ~transactions:[| transaction 0 0 3 10. 15.; transaction 1 1 3 15. 20. |]

let count_of pred violations = List.length (List.filter pred violations)

let test_good_schedule_passes () =
  Alcotest.(check int) "no violations" 0
    (List.length (Validate.check platform ctg (good_schedule ())))

let test_is_feasible () =
  Alcotest.(check bool) "feasible" true (Validate.is_feasible platform ctg (good_schedule ()))

let test_task_overlap_detected () =
  let s =
    Schedule.make
      ~placements:
        [|
          { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
          { Schedule.task = 1; pe = 0; start = 5.; finish = 15. };
          { Schedule.task = 2; pe = 0; start = 20.; finish = 30. };
        |]
      ~transactions:
        [| transaction 0 0 0 10. 10.; transaction 1 0 0 15. 15. |]
  in
  let violations = Validate.check platform ctg s in
  Alcotest.(check bool) "overlap reported" true
    (count_of (function Validate.Task_overlap _ -> true | _ -> false) violations > 0)

let test_link_conflict_detected () =
  let s =
    Schedule.make
      ~placements:
        [|
          { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
          { Schedule.task = 1; pe = 1; start = 0.; finish = 10. };
          { Schedule.task = 2; pe = 3; start = 20.; finish = 30. };
        |]
      (* Both transactions cross link 1->3 in overlapping windows. *)
      ~transactions:[| transaction 0 0 3 10. 15.; transaction 1 1 3 12. 17. |]
  in
  let violations = Validate.check platform ctg s in
  Alcotest.(check bool) "conflict reported" true
    (count_of (function Validate.Link_conflict _ -> true | _ -> false) violations > 0)

let test_dependency_violation_detected () =
  let s =
    Schedule.make
      ~placements:
        [|
          { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
          { Schedule.task = 1; pe = 1; start = 0.; finish = 10. };
          (* Receiver starts before the data arrives. *)
          { Schedule.task = 2; pe = 3; start = 12.; finish = 22. };
        |]
      ~transactions:[| transaction 0 0 3 10. 15.; transaction 1 1 3 15. 20. |]
  in
  let violations = Validate.check platform ctg s in
  Alcotest.(check bool) "dependency reported" true
    (count_of (function Validate.Dependency _ -> true | _ -> false) violations > 0)

let test_early_transaction_detected () =
  let s =
    Schedule.make
      ~placements:
        [|
          { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
          { Schedule.task = 1; pe = 1; start = 0.; finish = 10. };
          { Schedule.task = 2; pe = 3; start = 20.; finish = 30. };
        |]
      (* Transaction 0 departs before its sender finishes. *)
      ~transactions:[| transaction 0 0 3 5. 10.; transaction 1 1 3 15. 20. |]
  in
  let violations = Validate.check platform ctg s in
  Alcotest.(check bool) "early departure reported" true
    (count_of (function Validate.Dependency _ -> true | _ -> false) violations > 0)

let test_deadline_miss_detected () =
  let s =
    Schedule.make
      ~placements:
        [|
          { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
          { Schedule.task = 1; pe = 1; start = 0.; finish = 10. };
          { Schedule.task = 2; pe = 3; start = 95.; finish = 105. };
        |]
      ~transactions:[| transaction 0 0 3 10. 15.; transaction 1 1 3 15. 20. |]
  in
  let violations = Validate.check platform ctg s in
  Alcotest.(check int) "exactly one deadline miss" 1
    (count_of (function Validate.Deadline_miss _ -> true | _ -> false) violations)

let test_wrong_duration_detected () =
  let s =
    Schedule.make
      ~placements:
        [|
          { Schedule.task = 0; pe = 0; start = 0.; finish = 12. };
          { Schedule.task = 1; pe = 1; start = 0.; finish = 10. };
          { Schedule.task = 2; pe = 3; start = 20.; finish = 30. };
        |]
      ~transactions:[| transaction 0 0 3 12. 17.; transaction 1 1 3 17. 22. |]
  in
  let violations = Validate.check platform ctg s in
  Alcotest.(check bool) "cost-table mismatch reported" true
    (count_of (function Validate.Malformed _ -> true | _ -> false) violations > 0)

(* [0; 2; 3] is the YX detour: a perfectly valid walk through the 2x2
   mesh, just not the platform's deterministic XY route. The default
   check accepts it (degraded-platform reschedules record such routes). *)
let detour_schedule () =
  let detour =
    {
      Schedule.edge = 0;
      src_pe = 0;
      dst_pe = 3;
      route = [ 0; 2; 3 ];
      start = 10.;
      finish = 15.;
    }
  in
  Schedule.make
    ~placements:
      [|
        { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
        { Schedule.task = 1; pe = 1; start = 0.; finish = 10. };
        { Schedule.task = 2; pe = 3; start = 20.; finish = 30. };
      |]
    ~transactions:[| detour; transaction 1 1 3 15. 20. |]

let test_detour_route_passes_default () =
  Alcotest.(check int) "detour walk accepted" 0
    (List.length (Validate.check platform ctg (detour_schedule ())))

let test_broken_walk_detected () =
  (* [0; 3] jumps diagonally across the mesh: not a link, rejected even
     by the default (non-strict) check. *)
  let bad =
    {
      Schedule.edge = 0;
      src_pe = 0;
      dst_pe = 3;
      route = [ 0; 3 ];
      start = 10.;
      finish = 15.;
    }
  in
  let s =
    Schedule.make
      ~placements:
        [|
          { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
          { Schedule.task = 1; pe = 1; start = 0.; finish = 10. };
          { Schedule.task = 2; pe = 3; start = 20.; finish = 30. };
        |]
      ~transactions:[| bad; transaction 1 1 3 15. 20. |]
  in
  let violations = Validate.check platform ctg s in
  Alcotest.(check bool) "non-link hop reported" true
    (count_of (function Validate.Malformed _ -> true | _ -> false) violations > 0)

let test_wrong_pe_consistency_detected () =
  let s =
    Schedule.make
      ~placements:
        [|
          { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
          { Schedule.task = 1; pe = 1; start = 0.; finish = 10. };
          { Schedule.task = 2; pe = 3; start = 20.; finish = 30. };
        |]
      (* Transaction 0 claims the sender runs on pe 2. *)
      ~transactions:[| transaction 0 2 3 10. 15.; transaction 1 1 3 15. 20. |]
  in
  let violations = Validate.check platform ctg s in
  Alcotest.(check bool) "endpoint mismatch reported" true
    (count_of (function Validate.Malformed _ -> true | _ -> false) violations > 0)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_violation_printing () =
  let v = Validate.Deadline_miss { task = 2; deadline = 100.; finish = 105. } in
  let text = Format.asprintf "%a" Validate.pp_violation v in
  Alcotest.(check bool) "mentions the task" true (contains_substring text "task 2")

let suite =
  [
    Alcotest.test_case "good schedule passes" `Quick test_good_schedule_passes;
    Alcotest.test_case "is_feasible" `Quick test_is_feasible;
    Alcotest.test_case "task overlap detected" `Quick test_task_overlap_detected;
    Alcotest.test_case "link conflict detected" `Quick test_link_conflict_detected;
    Alcotest.test_case "dependency violation detected" `Quick
      test_dependency_violation_detected;
    Alcotest.test_case "early transaction detected" `Quick test_early_transaction_detected;
    Alcotest.test_case "deadline miss detected" `Quick test_deadline_miss_detected;
    Alcotest.test_case "wrong duration detected" `Quick test_wrong_duration_detected;
    Alcotest.test_case "detour route passes default check" `Quick
      test_detour_route_passes_default;
    Alcotest.test_case "broken walk detected" `Quick test_broken_walk_detected;
    Alcotest.test_case "wrong PE consistency detected" `Quick
      test_wrong_pe_consistency_detected;
    Alcotest.test_case "violation printing" `Quick test_violation_printing;
  ]
