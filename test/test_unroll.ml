(* Tests for release-time handling and the periodic unroller. *)

module Unroll = Noc_ctg.Unroll
module Ctg = Noc_ctg.Ctg
module Task = Noc_ctg.Task
module Builder = Noc_ctg.Builder
module Schedule = Noc_sched.Schedule

let platform2 = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:1

(* ------------------------------------------------------------------ *)
(* Release semantics *)

let test_release_validated () =
  let expect_invalid f =
    Alcotest.(check bool) "Invalid_argument" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid (fun () ->
      Task.make ~id:0 ~exec_times:[| 1. |] ~energies:[| 1. |] ~release:(-1.) ());
  expect_invalid (fun () ->
      Task.make ~id:0 ~exec_times:[| 1. |] ~energies:[| 1. |] ~release:10. ~deadline:5. ())

(* One task of 10 time units on either of two PEs, released at
   [release]. *)
let released ?deadline release =
  Ctg.make_exn
    ~tasks:[| Task.make ~id:0 ~exec_times:[| 10.; 10. |] ~energies:[| 1.; 1. |] ~release ?deadline () |]
    ~edges:[||]

let test_schedulers_respect_release () =
  let ctg = released 50. in
  let check name s =
    Alcotest.(check bool) (name ^ " starts at or after release") true
      ((Schedule.placement s 0).Schedule.start >= 50.)
  in
  check "eas" (Noc_eas.Eas.schedule platform2 ctg).Noc_eas.Eas.schedule;
  check "edf" (Noc_edf.Edf.schedule platform2 ctg);
  check "dls" (Noc_baselines.Dls.schedule platform2 ctg);
  check "greedy"
    (Noc_baselines.Energy_greedy.schedule platform2 ctg)

let test_validator_checks_release () =
  let ctg = released 50. in
  let early =
    Schedule.make
      ~placements:[| { Schedule.task = 0; pe = 0; start = 0.; finish = 10. } |]
      ~transactions:[||]
  in
  Alcotest.(check bool) "early start rejected" false
    (Noc_sched.Validate.is_feasible platform2 ctg early)

let test_release_roundtrips () =
  let ctg = released ~deadline:100. 25. in
  match Noc_ctg.Ctg_io.of_string (Noc_ctg.Ctg_io.to_string ctg) with
  | Error msg -> Alcotest.fail msg
  | Ok g ->
    Alcotest.(check (option (float 0.))) "release kept" (Some 25.)
      (Ctg.task g 0).Task.release

(* ------------------------------------------------------------------ *)
(* Unrolling *)

(* A two-task pipeline: produce -> consume, deadline 100, typical of one
   frame. *)
let frame () =
  let b = Builder.create ~n_pes:2 in
  let p = Builder.add_task b ~name:"produce" ~exec_times:[| 30.; 30. |]
      ~energies:[| 1.; 1. |] () in
  let c = Builder.add_task b ~name:"consume" ~exec_times:[| 30.; 30. |]
      ~energies:[| 1.; 1. |] ~deadline:100. () in
  Builder.connect b ~src:p ~dst:c ~volume:320.;
  Builder.build_exn b

let test_unroll_structure () =
  let base = frame () in
  let unrolled = Unroll.periodic base ~period:60. ~copies:3 in
  Alcotest.(check int) "3x tasks" 6 (Ctg.n_tasks unrolled);
  Alcotest.(check int) "3x edges" 3 (Ctg.n_edges unrolled);
  (* Instance k of task t has id k * n_tasks + t. *)
  Alcotest.(check string) "instance names" "produce@2"
    (Ctg.task unrolled ((2 * Ctg.n_tasks base) + 0)).Task.name;
  (* Instance k sources released at k * period, deadlines shifted. *)
  Alcotest.(check (option (float 0.))) "release of instance 1" (Some 60.)
    (Ctg.task unrolled 2).Task.release;
  Alcotest.(check (option (float 0.))) "first instance unshifted" None
    (Ctg.task unrolled 0).Task.release;
  Alcotest.(check (option (float 0.))) "deadline of instance 2" (Some 220.)
    (Ctg.task unrolled 5).Task.deadline

let test_unroll_carried () =
  let base = frame () in
  let unrolled =
    Unroll.periodic
      ~carried:[ { Unroll.from_task = 1; to_task = 0; volume = 64. } ]
      base ~period:60. ~copies:3
  in
  (* 3 intra-iteration arcs + 2 carried arcs. *)
  Alcotest.(check int) "carried arcs added" 5 (Ctg.n_edges unrolled);
  (* The carried arc connects consume@0 to produce@1. *)
  let e = Ctg.edge unrolled 3 in
  Alcotest.(check int) "from consume@0" 1 e.Noc_ctg.Edge.src;
  Alcotest.(check int) "to produce@1" 2 e.Noc_ctg.Edge.dst

let test_unroll_validation () =
  let base = frame () in
  let expect_invalid f =
    Alcotest.(check bool) "Invalid_argument" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid (fun () -> Unroll.periodic base ~period:0. ~copies:2);
  expect_invalid (fun () -> Unroll.periodic base ~period:10. ~copies:0);
  expect_invalid (fun () ->
      Unroll.periodic
        ~carried:[ { Unroll.from_task = 9; to_task = 0; volume = 1. } ]
        base ~period:10. ~copies:2)

let test_pipelined_throughput () =
  (* One frame takes ~60+ time units of work, but the period is only 40:
     a single PE cannot sustain it; two PEs can, by pipelining frames.
     EAS on the unrolled graph must meet every per-frame deadline. *)
  let base = frame () in
  let unrolled = Unroll.periodic base ~period:40. ~copies:4 in
  let outcome = Noc_eas.Eas.schedule platform2 unrolled in
  Alcotest.(check int) "all frame deadlines met" 0
    outcome.Noc_eas.Eas.stats.Noc_eas.Eas.misses_after_repair;
  let s = outcome.Noc_eas.Eas.schedule in
  Alcotest.(check bool) "feasible" true
    (Noc_sched.Validate.is_feasible platform2 unrolled s);
  (* Pipelining must actually overlap some pair of consecutive frames:
     frame k+1 starts before frame k fully finishes. *)
  let frame_window k =
    let ids = [ 2 * k; (2 * k) + 1 ] in
    ( List.fold_left (fun acc i -> Float.min acc (Schedule.placement s i).Schedule.start)
        infinity ids,
      List.fold_left (fun acc i -> Float.max acc (Schedule.placement s i).Schedule.finish)
        0. ids )
  in
  let overlaps =
    List.exists
      (fun k ->
        let _, finish_k = frame_window k in
        let start_next, _ = frame_window (k + 1) in
        start_next < finish_k)
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "consecutive frames overlap" true overlaps

let test_unrolled_msb_sustains_rate () =
  (* The real encoder: one frame's EAS latency (~24.4 ms) is close to the
     25 ms period; unrolling 3 frames checks the pipeline sustains
     40 frames/s on the 2x2 platform. *)
  let platform = Noc_msb.Platforms.av_2x2 in
  let base = Noc_msb.Graphs.encoder ~platform ~clip:Noc_msb.Profile.Foreman () in
  let unrolled =
    Unroll.periodic base ~period:Noc_msb.Graphs.encoder_period ~copies:3
  in
  let outcome = Noc_eas.Eas.schedule platform unrolled in
  Alcotest.(check int) "sustains 40 frames/s" 0
    outcome.Noc_eas.Eas.stats.Noc_eas.Eas.misses_after_repair

let suite =
  [
    Alcotest.test_case "release validated" `Quick test_release_validated;
    Alcotest.test_case "schedulers respect release" `Quick test_schedulers_respect_release;
    Alcotest.test_case "validator checks release" `Quick test_validator_checks_release;
    Alcotest.test_case "release roundtrips" `Quick test_release_roundtrips;
    Alcotest.test_case "unroll structure" `Quick test_unroll_structure;
    Alcotest.test_case "carried arcs" `Quick test_unroll_carried;
    Alcotest.test_case "unroll validation" `Quick test_unroll_validation;
    Alcotest.test_case "pipelined throughput" `Quick test_pipelined_throughput;
    Alcotest.test_case "unrolled MSB sustains rate" `Slow test_unrolled_msb_sustains_rate;
  ]
