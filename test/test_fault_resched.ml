(* Acceptance test for the reliability subsystem (ISSUE): on a 4x4
   category-I benchmark with one failed PE and one failed link, naive
   replay of the fault-free EAS schedule misses deadlines while the
   Fault_resched response produces a validator-accepted schedule that
   replays under the same faults with zero misses and zero losses. *)

module Ctg = Noc_ctg.Ctg
module Schedule = Noc_sched.Schedule
module Validate = Noc_sched.Validate
module Executor = Noc_sim.Executor
module Fault = Noc_fault.Fault
module Fault_set = Noc_fault.Fault_set
module Fault_resched = Noc_eas.Fault_resched
module Platform = Noc_noc.Platform

let platform = Noc_tgff.Category.platform

let ctg =
  let params =
    Noc_tgff.Category.scaled_params Noc_tgff.Category.Category_i ~scale:0.12
  in
  Noc_tgff.Generate.generate ~params ~platform ~seed:1_000

let eas_schedule = lazy ((Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule)

(* The fault set is derived from the schedule itself, so the scenario
   cannot rot: fail a PE that hosts deadline work and a link carried by
   a recorded route. *)
let fault_set () =
  let schedule = Lazy.force eas_schedule in
  let deadline_pe =
    let tasks = Ctg.tasks ctg in
    Array.to_list (Schedule.placements schedule)
    |> List.find_map (fun (p : Schedule.placement) ->
           match tasks.(p.task).Noc_ctg.Task.deadline with
           | Some _ -> Some p.pe
           | None -> None)
    |> Option.get
  in
  let used_link =
    Array.to_list (Schedule.transactions schedule)
    |> List.find_map (fun (tr : Schedule.transaction) ->
           match Schedule.links_of_transaction tr with
           | link :: _
             when link.Noc_noc.Routing.from_node <> deadline_pe
                  && link.to_node <> deadline_pe ->
             Some link
           | _ -> None)
    |> Option.get
  in
  ( deadline_pe,
    used_link,
    Fault_set.of_list
      [
        Fault.pe deadline_pe ();
        Fault.link ~from_node:used_link.Noc_noc.Routing.from_node
          ~to_node:used_link.to_node ();
      ] )

let structural_violations schedule =
  Validate.check platform ctg schedule
  |> List.filter (function Validate.Deadline_miss _ -> false | _ -> true)

let test_acceptance () =
  let schedule = Lazy.force eas_schedule in
  let _pe, _link, faults = fault_set () in
  (* Naive replay: keep executing the fault-free schedule. *)
  let naive = Executor.run ~faults platform ctg schedule in
  Alcotest.(check bool) "naive replay misses a deadline" true
    (List.length naive.deadline_misses >= 1);
  (* Reliability response: migrate + rebuild (+ repair) on the degraded
     platform. *)
  let { Fault_resched.schedule = rescheduled; stats } =
    Fault_resched.run platform ctg ~faults schedule
  in
  Alcotest.(check int) "validator accepts the rescheduled table" 0
    (List.length (structural_violations rescheduled));
  Alcotest.(check int) "no tabled deadline miss either" 0 stats.misses;
  let replay = Executor.run ~faults platform ctg rescheduled in
  Alcotest.(check (list int)) "fault-aware replay: zero misses" []
    replay.deadline_misses;
  Alcotest.(check (list int)) "fault-aware replay: zero lost tasks" []
    replay.lost_tasks;
  Alcotest.(check bool) "stranded work was migrated" true
    (stats.migrated_tasks >= 1)

let test_no_work_on_failed_elements () =
  let schedule = Lazy.force eas_schedule in
  let pe, link, faults = fault_set () in
  let { Fault_resched.schedule = rescheduled; _ } =
    Fault_resched.run platform ctg ~faults schedule
  in
  Array.iter
    (fun (p : Schedule.placement) ->
      if p.pe = pe then Alcotest.failf "task %d still on failed PE %d" p.task pe)
    (Schedule.placements rescheduled);
  Array.iter
    (fun (tr : Schedule.transaction) ->
      if
        List.exists
          (fun l -> Noc_noc.Routing.link_equal l link)
          (Schedule.links_of_transaction tr)
      then Alcotest.failf "edge %d still routed over the failed link" tr.edge)
    (Schedule.transactions rescheduled)

let test_trivial_fault_set_is_identity () =
  let schedule = Lazy.force eas_schedule in
  let { Fault_resched.schedule = same; stats } =
    Fault_resched.run platform ctg ~faults:Fault_set.empty schedule
  in
  Alcotest.(check bool) "unchanged schedule" true (same == schedule);
  Alcotest.(check int) "no migrations" 0 stats.migrated_tasks;
  Alcotest.(check int) "no reroutes" 0 stats.rerouted_transactions

let test_criticality_ranking () =
  let schedule = Lazy.force eas_schedule in
  let ranking = Fault_resched.criticality platform ctg schedule in
  let n_elements =
    Platform.n_pes platform + List.length (Platform.all_links platform)
  in
  Alcotest.(check int) "covers every PE and link" n_elements
    (List.length ranking);
  let score (c : Fault_resched.criticality) =
    (c.induced_misses, c.induced_losses)
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> score a >= score b && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted most critical first" true (sorted ranking);
  (* Killing the PE that hosts deadline work must rank strictly above a
     harmless element: the tail of the ranking is damage-free only if
     some element is. The head must do real damage here. *)
  let head = List.hd ranking in
  Alcotest.(check bool) "most critical element induces damage" true
    (head.induced_misses > 0 || head.induced_losses > 0)

(* Failing every PE leaves nowhere to migrate: a named error, not the
   bare [Failure "hd"] of an empty survivor list. *)
let test_every_pe_failed () =
  let faults =
    Fault_set.of_list (List.init (Platform.n_pes platform) (fun i -> Fault.pe i ()))
  in
  Alcotest.check_raises "named error" (Invalid_argument "Fault_resched.run: every PE is failed")
    (fun () -> ignore (Fault_resched.run platform ctg ~faults (Lazy.force eas_schedule)))

let suite =
  [
    Alcotest.test_case "degraded reschedule beats naive replay" `Slow
      test_acceptance;
    Alcotest.test_case "rescheduled work avoids failed elements" `Slow
      test_no_work_on_failed_elements;
    Alcotest.test_case "trivial fault set returns the input" `Quick
      test_trivial_fault_set_is_identity;
    Alcotest.test_case "criticality ranks every element" `Slow
      test_criticality_ranking;
    Alcotest.test_case "every PE failed is a named error" `Quick test_every_pe_failed;
  ]
