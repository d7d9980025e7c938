(* Tests for the EDF baseline. *)

module Edf = Noc_edf.Edf
module Schedule = Noc_sched.Schedule
module Validate = Noc_sched.Validate
module Builder = Noc_ctg.Builder

let platform = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:2

let test_effective_deadline_propagation () =
  (* Chain 0 -> 1 -> 2 with d(2) = 100, all min exec times 10:
     ed(2) = 100, ed(1) = 90, ed(0) = 80. *)
  let b = Builder.create ~n_pes:4 in
  let t0 = Builder.add_uniform_task b ~time:10. ~energy:1. () in
  let t1 = Builder.add_uniform_task b ~time:10. ~energy:1. () in
  let t2 = Builder.add_uniform_task b ~time:10. ~energy:1. ~deadline:100. () in
  Builder.connect b ~src:t0 ~dst:t1 ~volume:1.;
  Builder.connect b ~src:t1 ~dst:t2 ~volume:1.;
  let ctg = Builder.build_exn b in
  let ed = Edf.effective_deadlines ctg in
  Alcotest.(check (float 1e-9)) "sink" 100. ed.(2);
  Alcotest.(check (float 1e-9)) "middle" 90. ed.(1);
  Alcotest.(check (float 1e-9)) "source" 80. ed.(0)

let test_effective_deadline_own_vs_successor () =
  (* A task's own earlier deadline wins over a looser successor chain. *)
  let b = Builder.create ~n_pes:4 in
  let t0 = Builder.add_uniform_task b ~time:10. ~energy:1. ~deadline:30. () in
  let t1 = Builder.add_uniform_task b ~time:10. ~energy:1. ~deadline:1_000. () in
  Builder.connect b ~src:t0 ~dst:t1 ~volume:1.;
  let ed = Edf.effective_deadlines (Builder.build_exn b) in
  Alcotest.(check (float 1e-9)) "own deadline binds" 30. ed.(0)

let test_unconstrained_infinite () =
  let b = Builder.create ~n_pes:4 in
  ignore (Builder.add_uniform_task b ~time:10. ~energy:1. ());
  let ed = Edf.effective_deadlines (Builder.build_exn b) in
  Alcotest.(check bool) "infinite" true (ed.(0) = infinity)

let test_urgent_task_scheduled_first () =
  (* Two independent tasks on one effective PE order: the one with the
     tighter deadline must start first when both are ready. *)
  let single_pe =
    Noc_noc.Platform.make
      ~topology:(Noc_noc.Topology.mesh ~cols:1 ~rows:1)
      ~pes:[| Noc_noc.Pe.of_kind ~index:0 Noc_noc.Pe.Dsp |]
      ()
  in
  let b = Builder.create ~n_pes:1 in
  let relaxed = Builder.add_uniform_task b ~time:10. ~energy:1. ~deadline:100. () in
  let urgent = Builder.add_uniform_task b ~time:10. ~energy:1. ~deadline:25. () in
  let ctg = Builder.build_exn b in
  let s = Edf.schedule single_pe ctg in
  Alcotest.(check bool) "urgent first" true
    ((Schedule.placement s urgent).Schedule.start
    < (Schedule.placement s relaxed).Schedule.start)

let test_picks_fastest_pe () =
  (* Heterogeneous pair: EDF takes the fast PE regardless of energy. *)
  let platform2 =
    Noc_noc.Platform.make
      ~topology:(Noc_noc.Topology.mesh ~cols:2 ~rows:1)
      ~pes:
        [|
          Noc_noc.Pe.make ~index:0 ~kind:Noc_noc.Pe.Risc_lowpower ~time_factor:2.
            ~power_factor:0.2;
          Noc_noc.Pe.make ~index:1 ~kind:Noc_noc.Pe.Risc_fast ~time_factor:0.5
            ~power_factor:5.;
        |]
      ()
  in
  let b = Builder.create ~n_pes:2 in
  ignore (Builder.add_task b ~exec_times:[| 100.; 25. |] ~energies:[| 10.; 99. |] ());
  let ctg = Builder.build_exn b in
  let s = Edf.schedule platform2 ctg in
  Alcotest.(check int) "fast PE regardless of energy" 1
    (Schedule.placement s 0).Schedule.pe

let test_deterministic () =
  let params = { Noc_tgff.Params.default with n_tasks = 50 } in
  let cat = Noc_tgff.Category.platform in
  let ctg = Noc_tgff.Generate.generate ~params ~platform:cat ~seed:4 in
  let s1 = Edf.schedule cat ctg in
  let s2 = Edf.schedule cat ctg in
  Alcotest.(check bool) "same schedule" true
    (Schedule.placements s1 = Schedule.placements s2)

let qcheck_edf_feasible =
  QCheck.Test.make ~name:"EDF schedules are always resource-feasible" ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let params = { Noc_tgff.Params.default with n_tasks = 40 } in
      let cat = Noc_tgff.Category.platform in
      let ctg = Noc_tgff.Generate.generate ~params ~platform:cat ~seed in
      let s = Edf.schedule cat ctg in
      Validate.check cat ctg s
      |> List.for_all (function Validate.Deadline_miss _ -> true | _ -> false))

let suite =
  [
    Alcotest.test_case "effective deadline propagation" `Quick
      test_effective_deadline_propagation;
    Alcotest.test_case "own vs successor deadline" `Quick
      test_effective_deadline_own_vs_successor;
    Alcotest.test_case "unconstrained infinite" `Quick test_unconstrained_infinite;
    Alcotest.test_case "urgent task first" `Quick test_urgent_task_scheduled_first;
    Alcotest.test_case "picks fastest PE" `Quick test_picks_fastest_pe;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    QCheck_alcotest.to_alcotest qcheck_edf_feasible;
  ]
