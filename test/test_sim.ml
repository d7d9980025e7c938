(* Tests for the wormhole NoC executor (Noc_sim). *)

module Event_queue = Noc_sim.Event_queue
module Executor = Noc_sim.Executor
module Schedule = Noc_sched.Schedule
module Validate = Noc_sched.Validate

(* ------------------------------------------------------------------ *)
(* Event queue *)

let test_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3. "c";
  Event_queue.push q ~time:1. "a";
  Event_queue.push q ~time:2. "b";
  let drain () =
    let rec go acc =
      match Event_queue.pop q with
      | None -> List.rev acc
      | Some (_, v) -> go (v :: acc)
    in
    go []
  in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (drain ())

let test_queue_fifo_on_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:5. i
  done;
  let rec drain acc =
    match Event_queue.pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "insertion order on equal time" (List.init 10 Fun.id)
    (drain [])

let test_queue_interleaved () =
  let q = Event_queue.create () in
  let pop label want =
    Alcotest.(check (option (pair (float 0.) int))) label want (Event_queue.pop q)
  in
  Event_queue.push q ~time:2. 2;
  Event_queue.push q ~time:1. 1;
  pop "earlier push jumps ahead" (Some (1., 1));
  Event_queue.push q ~time:0.5 0;
  pop "earliest" (Some (0.5, 0));
  pop "last one left" (Some (2., 2));
  pop "empty at the end" None

let test_queue_random_sorts () =
  let q = Event_queue.create () in
  let rng = Noc_util.Prng.create ~seed:3 in
  let times = Array.init 500 (fun _ -> Noc_util.Prng.float rng ~bound:100.) in
  Array.iter (fun t -> Event_queue.push q ~time:t ()) times;
  let rec drain last =
    match Event_queue.pop q with
    | None -> true
    | Some (t, ()) -> t >= last && drain t
  in
  Alcotest.(check bool) "nondecreasing" true (drain neg_infinity)

(* ------------------------------------------------------------------ *)
(* Executor *)

let category_platform = Noc_tgff.Category.platform

let random_ctg ?(n_tasks = 60) ?(tightness = 1.8) seed =
  let params =
    { Noc_tgff.Params.default with n_tasks; deadline_tightness = tightness }
  in
  Noc_tgff.Generate.generate ~params ~platform:category_platform ~seed

let max_finish_deviation a b =
  let worst = ref 0. in
  for i = 0 to Schedule.n_tasks a - 1 do
    worst :=
      Float.max !worst
        (Float.abs
           ((Schedule.placement a i).Schedule.finish
           -. (Schedule.placement b i).Schedule.finish))
  done;
  !worst

let test_time_triggered_replays_exactly () =
  (* A contention-aware schedule is conflict-free, so the table-driven
     runtime reproduces it to the tick. *)
  for seed = 0 to 4 do
    let ctg = random_ctg seed in
    let planned = (Noc_eas.Eas.schedule category_platform ctg).Noc_eas.Eas.schedule in
    let outcome = Executor.run category_platform ctg planned in
    Alcotest.(check (float 1e-6)) "zero deviation" 0.
      (max_finish_deviation planned outcome.Executor.realised);
    Alcotest.(check (float 1e-6)) "no blocking" 0. outcome.Executor.waiting_time
  done

let test_self_timed_is_feasible () =
  (* Work-conserving execution enforces resources by construction; the
     realised schedule must pass the independent validator (deadlines
     aside, which anomalies may cost). *)
  for seed = 0 to 4 do
    let ctg = random_ctg seed in
    let planned = (Noc_eas.Eas.schedule category_platform ctg).Noc_eas.Eas.schedule in
    let outcome =
      Executor.run ~discipline:Executor.Self_timed category_platform ctg planned
    in
    let hard =
      Validate.check category_platform ctg outcome.Executor.realised
      |> List.filter (function Validate.Deadline_miss _ -> false | _ -> true)
    in
    Alcotest.(check int) "resource-feasible" 0 (List.length hard)
  done

let test_self_timed_never_slower_than_sequential () =
  let ctg = random_ctg 3 in
  let planned = (Noc_eas.Eas.schedule category_platform ctg).Noc_eas.Eas.schedule in
  let outcome =
    Executor.run ~discipline:Executor.Self_timed category_platform ctg planned
  in
  Alcotest.(check bool) "finite makespan" true
    (Float.is_finite (Schedule.makespan outcome.Executor.realised))

let test_fixed_delay_exposes_contention () =
  (* Across several seeds, at least one fixed-delay schedule must block
     on links during replay, and at least one must miss a deadline it
     thought it met (this is the ablation's point). *)
  let blocked = ref false and surprise_miss = ref false in
  List.iter
    (fun seed ->
      let ctg = random_ctg ~n_tasks:120 ~tightness:1.4 seed in
      let planned =
        let kernel =
          Noc_eas.Kernel.build ~comm_model:Noc_sched.Comm_sched.Fixed_delay
            category_platform ctg
        in
        (Noc_eas.Eas.schedule ~kernel category_platform ctg).Noc_eas.Eas.schedule
      in
      let outcome = Executor.run category_platform ctg planned in
      if outcome.Executor.waiting_time > 0. then blocked := true;
      let misses s =
        List.length
          (Noc_sched.Metrics.compute category_platform ctg s).Noc_sched.Metrics.deadline_misses
      in
      if misses outcome.Executor.realised > misses planned then surprise_miss := true)
    [ 0; 1; 2; 7; 8 ];
  Alcotest.(check bool) "some replay blocked on links" true !blocked;
  Alcotest.(check bool) "some replay missed an unplanned deadline" true !surprise_miss

let test_realised_schedule_structure () =
  let ctg = random_ctg 1 in
  let planned = (Noc_eas.Eas.schedule category_platform ctg).Noc_eas.Eas.schedule in
  let outcome = Executor.run category_platform ctg planned in
  let realised = outcome.Executor.realised in
  Alcotest.(check int) "all tasks placed" (Noc_ctg.Ctg.n_tasks ctg)
    (Schedule.n_tasks realised);
  (* Assignment preserved. *)
  for i = 0 to Noc_ctg.Ctg.n_tasks ctg - 1 do
    Alcotest.(check int) "same PE"
      (Schedule.placement planned i).Schedule.pe
      (Schedule.placement realised i).Schedule.pe
  done

let suite =
  [
    Alcotest.test_case "queue ordering" `Quick test_queue_ordering;
    Alcotest.test_case "queue FIFO on ties" `Quick test_queue_fifo_on_ties;
    Alcotest.test_case "queue interleaved ops" `Quick test_queue_interleaved;
    Alcotest.test_case "queue sorts random input" `Quick test_queue_random_sorts;
    Alcotest.test_case "time-triggered replay is exact" `Slow
      test_time_triggered_replays_exactly;
    Alcotest.test_case "self-timed replay feasible" `Slow test_self_timed_is_feasible;
    Alcotest.test_case "self-timed terminates" `Quick
      test_self_timed_never_slower_than_sequential;
    Alcotest.test_case "fixed delay exposes contention" `Slow
      test_fixed_delay_exposes_contention;
    Alcotest.test_case "realised schedule structure" `Quick
      test_realised_schedule_structure;
  ]
