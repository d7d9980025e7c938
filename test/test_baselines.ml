(* Tests for the extended baseline schedulers (DLS, energy-greedy). *)

module Dls = Noc_baselines.Dls
module Energy_greedy = Noc_baselines.Energy_greedy
module Schedule = Noc_sched.Schedule
module Validate = Noc_sched.Validate
module Metrics = Noc_sched.Metrics
module Builder = Noc_ctg.Builder

let platform = Noc_tgff.Category.platform

let random_ctg ?(n_tasks = 50) seed =
  let params = { Noc_tgff.Params.default with n_tasks } in
  Noc_tgff.Generate.generate ~params ~platform ~seed

let resource_feasible ctg s =
  Validate.check platform ctg s
  |> List.for_all (function Validate.Deadline_miss _ -> true | _ -> false)

let test_static_levels () =
  (* Chain with mean times 10, 20, 30: SL = 60, 50, 30. *)
  let b = Builder.create ~n_pes:2 in
  let t0 = Builder.add_uniform_task b ~time:10. ~energy:1. () in
  let t1 = Builder.add_uniform_task b ~time:20. ~energy:1. () in
  let t2 = Builder.add_uniform_task b ~time:30. ~energy:1. () in
  Builder.connect b ~src:t0 ~dst:t1 ~volume:1.;
  Builder.connect b ~src:t1 ~dst:t2 ~volume:1.;
  let sl = Dls.static_levels (Builder.build_exn b) in
  Alcotest.(check (array (float 1e-9))) "levels" [| 60.; 50.; 30. |] sl

let test_static_levels_branching () =
  (* 0 -> {1, 2}: SL(0) = mean(0) + max(SL(1), SL(2)). *)
  let b = Builder.create ~n_pes:2 in
  let t0 = Builder.add_uniform_task b ~time:10. ~energy:1. () in
  let t1 = Builder.add_uniform_task b ~time:5. ~energy:1. () in
  let t2 = Builder.add_uniform_task b ~time:50. ~energy:1. () in
  Builder.connect b ~src:t0 ~dst:t1 ~volume:1.;
  Builder.connect b ~src:t0 ~dst:t2 ~volume:1.;
  let sl = Dls.static_levels (Builder.build_exn b) in
  Alcotest.(check (float 1e-9)) "root level" 60. sl.(0)

let test_dls_feasible () =
  for seed = 0 to 4 do
    let ctg = random_ctg seed in
    Alcotest.(check bool) "resource-feasible" true
      (resource_feasible ctg (Dls.schedule platform ctg))
  done

let test_dls_prefers_fast_pe () =
  (* A single task runs on the PE where it executes fastest. *)
  let p2 =
    Noc_noc.Platform.make
      ~topology:(Noc_noc.Topology.mesh ~cols:2 ~rows:1)
      ~pes:
        [|
          Noc_noc.Pe.make ~index:0 ~kind:Noc_noc.Pe.Risc_lowpower ~time_factor:1.
            ~power_factor:1.;
          Noc_noc.Pe.make ~index:1 ~kind:Noc_noc.Pe.Risc_fast ~time_factor:1.
            ~power_factor:1.;
        |]
      ()
  in
  let b = Builder.create ~n_pes:2 in
  let t = Builder.add_task b ~exec_times:[| 100.; 10. |] ~energies:[| 1.; 999. |] () in
  let ctg = Builder.build_exn b in
  let s = Dls.schedule p2 ctg in
  Alcotest.(check int) "fastest PE wins" 1 (Schedule.placement s t).Schedule.pe

let test_dls_good_makespan () =
  (* DLS is the performance heuristic: its makespan must beat EAS's on
     graphs with slack (EAS trades time for energy). *)
  let better = ref 0 in
  for seed = 0 to 4 do
    let ctg = random_ctg seed in
    let dls = Dls.schedule platform ctg in
    let eas = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
    if Schedule.makespan dls < Schedule.makespan eas then incr better
  done;
  Alcotest.(check bool) "shorter makespan on most seeds" true (!better >= 4)

let test_dls_deterministic () =
  let ctg = random_ctg 3 in
  let a = Dls.schedule platform ctg in
  let b = Dls.schedule platform ctg in
  Alcotest.(check bool) "same schedule" true (Schedule.placements a = Schedule.placements b)

let test_greedy_feasible () =
  for seed = 0 to 4 do
    let ctg = random_ctg seed in
    Alcotest.(check bool) "resource-feasible" true
      (resource_feasible ctg (Energy_greedy.schedule platform ctg))
  done

let test_greedy_is_energy_lower_bound_in_practice () =
  (* The greedy mapper ignores deadlines, so its energy must be at most
     EAS's (which optimises the same metric under constraints). *)
  for seed = 0 to 4 do
    let ctg = random_ctg seed in
    let greedy = Energy_greedy.schedule platform ctg in
    let eas = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
    let e s = (Metrics.compute platform ctg s).Metrics.total_energy in
    Alcotest.(check bool) "greedy <= EAS energy" true (e greedy <= e eas +. 1e-6)
  done

let test_greedy_clusters_communication () =
  (* With heavy communication and uniform computation, everything lands
     on one tile. *)
  let p = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:2 in
  let b = Builder.create ~n_pes:4 in
  let prev = ref (Builder.add_uniform_task b ~time:10. ~energy:5. ()) in
  for _ = 1 to 5 do
    let next = Builder.add_uniform_task b ~time:10. ~energy:5. () in
    Builder.connect b ~src:!prev ~dst:next ~volume:1_000_000.;
    prev := next
  done;
  let ctg = Builder.build_exn b in
  let s = Energy_greedy.schedule p ctg in
  let pes =
    Array.to_list (Schedule.placements s)
    |> List.map (fun (p : Schedule.placement) -> p.pe)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "single tile" 1 (List.length pes)

let test_compare_experiment_shape () =
  let rows = Noc_experiments.Baselines_compare.run ~seeds:[ 0 ] () in
  List.iter
    (fun (r : Noc_experiments.Baselines_compare.row) ->
      Alcotest.(check int) "four schedulers" 4
        (List.length r.Noc_experiments.Baselines_compare.entries);
      let find name =
        List.find
          (fun (e : Noc_experiments.Baselines_compare.entry) -> e.scheduler = name)
          r.Noc_experiments.Baselines_compare.entries
      in
      let eas = find "EAS" and greedy = find "Energy-greedy" in
      Alcotest.(check int) "EAS misses nothing" 0
        eas.Noc_experiments.Baselines_compare.misses;
      Alcotest.(check bool) "greedy energy is the floor" true
        (greedy.Noc_experiments.Baselines_compare.energy
        <= eas.Noc_experiments.Baselines_compare.energy +. 1e-6))
    rows;
  Alcotest.(check bool) "render works" true
    (String.length (Noc_experiments.Baselines_compare.render rows) > 0)

let suite =
  [
    Alcotest.test_case "static levels (chain)" `Quick test_static_levels;
    Alcotest.test_case "static levels (branching)" `Quick test_static_levels_branching;
    Alcotest.test_case "DLS feasible" `Slow test_dls_feasible;
    Alcotest.test_case "DLS prefers fast PE" `Quick test_dls_prefers_fast_pe;
    Alcotest.test_case "DLS good makespan" `Slow test_dls_good_makespan;
    Alcotest.test_case "DLS deterministic" `Quick test_dls_deterministic;
    Alcotest.test_case "greedy feasible" `Slow test_greedy_feasible;
    Alcotest.test_case "greedy is the energy floor" `Slow
      test_greedy_is_energy_lower_bound_in_practice;
    Alcotest.test_case "greedy clusters communication" `Quick
      test_greedy_clusters_communication;
    Alcotest.test_case "comparison experiment shape" `Slow test_compare_experiment_shape;
  ]
