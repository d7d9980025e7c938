(* End-to-end tests for the EAS scheduler (Level_sched + Repair + Eas)
   and its Rebuild substrate. *)

module Eas = Noc_eas.Eas
module Budget = Noc_eas.Budget
module Level_sched = Noc_eas.Level_sched
module Rebuild = Noc_eas.Rebuild
module Repair = Noc_eas.Repair
module Schedule = Noc_sched.Schedule
module Validate = Noc_sched.Validate
module Metrics = Noc_sched.Metrics
module Platform = Noc_noc.Platform
module Builder = Noc_ctg.Builder

(* A 1x2 platform with a slow efficient PE 0 and a fast hungry PE 1. *)
let two_pe_platform =
  Platform.make
    ~topology:(Noc_noc.Topology.mesh ~cols:2 ~rows:1)
    ~pes:
      [|
        Noc_noc.Pe.make ~index:0 ~kind:Noc_noc.Pe.Risc_lowpower ~time_factor:2.
          ~power_factor:0.25;
        Noc_noc.Pe.make ~index:1 ~kind:Noc_noc.Pe.Risc_fast ~time_factor:0.5
          ~power_factor:4.;
      |]
    ~link_bandwidth:1_000. ()

(* One task: 100/25 time units, 10/40 energy on PEs 0/1. *)
let single_task ~deadline =
  let b = Builder.create ~n_pes:2 in
  ignore
    (Builder.add_task b ~exec_times:[| 100.; 25. |] ~energies:[| 10.; 40. |]
       ?deadline ());
  Builder.build_exn b

let test_loose_deadline_prefers_efficiency () =
  let ctg = single_task ~deadline:(Some 500.) in
  let s = (Eas.schedule two_pe_platform ctg).Eas.schedule in
  Alcotest.(check int) "efficient PE chosen" 0 (Schedule.placement s 0).Schedule.pe

let test_tight_deadline_forces_speed () =
  let ctg = single_task ~deadline:(Some 30.) in
  let s = (Eas.schedule two_pe_platform ctg).Eas.schedule in
  Alcotest.(check int) "fast PE forced" 1 (Schedule.placement s 0).Schedule.pe;
  Alcotest.(check int) "deadline met" 0
    (List.length (Metrics.compute two_pe_platform ctg s).Metrics.deadline_misses)

let test_no_deadline_is_pure_energy_minimisation () =
  let ctg = single_task ~deadline:None in
  let s = (Eas.schedule two_pe_platform ctg).Eas.schedule in
  Alcotest.(check int) "cheapest PE" 0 (Schedule.placement s 0).Schedule.pe

(* Communication-aware placement: two communicating tasks with equal
   computation costs everywhere must land on the same tile, because the
   arc is expensive. *)
let test_communication_clusters_tasks () =
  let platform = Platform.homogeneous_mesh ~cols:2 ~rows:2 in
  let b = Builder.create ~n_pes:4 in
  let t0 = Builder.add_uniform_task b ~time:10. ~energy:5. () in
  let t1 = Builder.add_uniform_task b ~time:10. ~energy:5. () in
  Builder.connect b ~src:t0 ~dst:t1 ~volume:1_000_000.;
  let ctg = Builder.build_exn b in
  let s = (Eas.schedule platform ctg).Eas.schedule in
  Alcotest.(check int) "same tile"
    (Schedule.placement s 0).Schedule.pe
    (Schedule.placement s 1).Schedule.pe

let category_platform = Noc_tgff.Category.platform

let random_ctg ?(n_tasks = 60) ?(tightness = 1.8) seed =
  let params =
    { Noc_tgff.Params.default with n_tasks; deadline_tightness = tightness }
  in
  Noc_tgff.Generate.generate ~params ~platform:category_platform ~seed

let test_deterministic () =
  let ctg = random_ctg 3 in
  let s1 = (Eas.schedule category_platform ctg).Eas.schedule in
  let s2 = (Eas.schedule category_platform ctg).Eas.schedule in
  Alcotest.(check bool) "same schedules" true
    (Schedule.placements s1 = Schedule.placements s2
    && Schedule.transactions s1 = Schedule.transactions s2)

let test_stats_consistency () =
  let ctg = random_ctg ~tightness:1.3 17 in
  let outcome = Eas.schedule category_platform ctg in
  let actual_misses =
    List.length
      (Metrics.compute category_platform ctg outcome.Eas.schedule).Metrics.deadline_misses
  in
  Alcotest.(check int) "misses_after_repair matches metrics"
    outcome.Eas.stats.Eas.misses_after_repair actual_misses;
  Alcotest.(check bool) "repair never hurts" true
    (outcome.Eas.stats.Eas.misses_after_repair
    <= outcome.Eas.stats.Eas.misses_before_repair)

(* ------------------------------------------------------------------ *)
(* Rebuild *)

let test_rebuild_roundtrip () =
  let ctg = random_ctg 5 in
  let s = (Eas.schedule category_platform ctg).Eas.schedule in
  let assignment, rank = Rebuild.of_schedule s in
  let rebuilt =
    Rebuild.run (Noc_eas.Kernel.build category_platform ctg) ~assignment ~rank
  in
  (* Same assignment... *)
  for i = 0 to Noc_ctg.Ctg.n_tasks ctg - 1 do
    Alcotest.(check int) "assignment preserved"
      (Schedule.placement s i).Schedule.pe
      (Schedule.placement rebuilt i).Schedule.pe
  done;
  (* ...and still resource-feasible (deadlines aside). *)
  let hard =
    Validate.check category_platform ctg rebuilt
    |> List.filter (function Validate.Deadline_miss _ -> false | _ -> true)
  in
  Alcotest.(check int) "rebuild feasible" 0 (List.length hard)

let test_rebuild_validates_input () =
  let ctg = random_ctg 5 in
  let n = Noc_ctg.Ctg.n_tasks ctg in
  Alcotest.(check bool) "bad PE rejected" true
    (try
       ignore
         (Rebuild.run (Noc_eas.Kernel.build category_platform ctg)
            ~assignment:(Array.make n 99)
            ~rank:(Array.init n Fun.id));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Repair *)

let test_critical_tasks_marking () =
  (* Chain 0 -> 1 where 1 misses: both are critical (ancestors marked). *)
  let b = Builder.create ~n_pes:2 in
  let t0 = Builder.add_uniform_task b ~time:10. ~energy:1. () in
  let t1 = Builder.add_uniform_task b ~time:10. ~energy:1. ~deadline:15. () in
  let t2 = Builder.add_uniform_task b ~time:10. ~energy:1. () in
  Builder.connect b ~src:t0 ~dst:t1 ~volume:0.;
  ignore t2;
  let ctg = Builder.build_exn b in
  let s =
    Schedule.make
      ~placements:
        [|
          { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
          { Schedule.task = 1; pe = 0; start = 10.; finish = 20. };
          { Schedule.task = 2; pe = 1; start = 0.; finish = 10. };
        |]
      ~transactions:
        [|
          {
            Schedule.edge = 0;
            src_pe = 0;
            dst_pe = 0;
            route = [ 0 ];
            start = 10.;
            finish = 10.;
          };
        |]
  in
  let critical = Repair.critical_tasks ctg s in
  Alcotest.(check (array bool)) "chain critical, bystander not"
    [| true; true; false |] critical

let test_repair_fixes_misses () =
  (* Find a seed where EAS-base misses, then check repair clears it. *)
  let tightness = 1.25 in
  let found = ref None in
  for seed = 0 to 20 do
    if !found = None then begin
      let ctg = random_ctg ~n_tasks:50 ~tightness seed in
      let base = Eas.schedule ~repair:false category_platform ctg in
      if base.Eas.stats.Eas.misses_before_repair > 0 then found := Some (ctg, base)
    end
  done;
  match !found with
  | None -> Alcotest.fail "calibration: no missing seed found"
  | Some (ctg, base) ->
    let repaired, stats =
      Repair.run ~kernel:(Noc_eas.Kernel.build category_platform ctg) category_platform
        ctg base.Eas.schedule
    in
    let misses =
      List.length (Metrics.compute category_platform ctg repaired).Metrics.deadline_misses
    in
    Alcotest.(check bool) "missed fewer deadlines" true
      (misses < base.Eas.stats.Eas.misses_before_repair);
    Alcotest.(check bool) "did some work" true (stats.Repair.evaluations > 0);
    let hard =
      Validate.check category_platform ctg repaired
      |> List.filter (function Validate.Deadline_miss _ -> false | _ -> true)
    in
    Alcotest.(check int) "repaired schedule stays feasible" 0 (List.length hard)

let test_repair_noop_on_clean_schedule () =
  let ctg = random_ctg 1 in
  let s = (Eas.schedule ~repair:false category_platform ctg).Eas.schedule in
  let repaired, stats =
    Repair.run ~kernel:(Noc_eas.Kernel.build category_platform ctg) category_platform ctg s
  in
  Alcotest.(check int) "no evaluations" 0 stats.Repair.evaluations;
  Alcotest.(check bool) "schedule unchanged" true (repaired == s)

(* ------------------------------------------------------------------ *)
(* Feasibility properties *)

let qcheck_eas_schedules_feasible =
  QCheck.Test.make ~name:"EAS schedules are always resource-feasible" ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let ctg = random_ctg ~n_tasks:40 seed in
      let s = (Eas.schedule category_platform ctg).Eas.schedule in
      Validate.check category_platform ctg s
      |> List.for_all (function Validate.Deadline_miss _ -> true | _ -> false))

let qcheck_eas_base_schedules_feasible =
  QCheck.Test.make ~name:"EAS-base schedules are always resource-feasible"
    ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let ctg = random_ctg ~n_tasks:40 ~tightness:1.2 seed in
      let s = (Eas.schedule ~repair:false category_platform ctg).Eas.schedule in
      Validate.check category_platform ctg s
      |> List.for_all (function Validate.Deadline_miss _ -> true | _ -> false))

let test_eas_beats_edf_on_energy () =
  (* Statistical, not per-seed: across 8 seeds EAS must win on average
     and on a clear majority. *)
  let wins = ref 0 and total_eas = ref 0. and total_edf = ref 0. in
  for seed = 0 to 7 do
    let ctg = random_ctg ~n_tasks:60 seed in
    let eas = (Eas.schedule category_platform ctg).Eas.schedule in
    let edf = Noc_edf.Edf.schedule category_platform ctg in
    let e s = (Metrics.compute category_platform ctg s).Metrics.total_energy in
    if e eas < e edf then incr wins;
    total_eas := !total_eas +. e eas;
    total_edf := !total_edf +. e edf
  done;
  Alcotest.(check bool) "wins a clear majority" true (!wins >= 6);
  Alcotest.(check bool) "wins on average" true (!total_eas < !total_edf)

let suite =
  [
    Alcotest.test_case "loose deadline prefers efficiency" `Quick
      test_loose_deadline_prefers_efficiency;
    Alcotest.test_case "tight deadline forces speed" `Quick
      test_tight_deadline_forces_speed;
    Alcotest.test_case "no deadline: energy minimisation" `Quick
      test_no_deadline_is_pure_energy_minimisation;
    Alcotest.test_case "communication clusters tasks" `Quick
      test_communication_clusters_tasks;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
    Alcotest.test_case "rebuild roundtrip" `Quick test_rebuild_roundtrip;
    Alcotest.test_case "rebuild validates input" `Quick test_rebuild_validates_input;
    Alcotest.test_case "critical task marking" `Quick test_critical_tasks_marking;
    Alcotest.test_case "repair fixes misses" `Slow test_repair_fixes_misses;
    Alcotest.test_case "repair no-op when clean" `Quick test_repair_noop_on_clean_schedule;
    QCheck_alcotest.to_alcotest qcheck_eas_schedules_feasible;
    QCheck_alcotest.to_alcotest qcheck_eas_base_schedules_feasible;
    Alcotest.test_case "EAS beats EDF on energy" `Slow test_eas_beats_edf_on_energy;
  ]
