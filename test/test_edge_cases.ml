(* Edge cases across the stack: degenerate platforms, extreme graphs,
   renderer corner cases. *)

module Platform = Noc_noc.Platform
module Schedule = Noc_sched.Schedule
module Builder = Noc_ctg.Builder

let test_single_tile_platform () =
  (* A 1x1 "NoC": no links at all; everything must still work. *)
  let platform =
    Platform.make
      ~topology:(Noc_noc.Topology.mesh ~cols:1 ~rows:1)
      ~pes:[| Noc_noc.Pe.of_kind ~index:0 Noc_noc.Pe.Dsp |]
      ()
  in
  Alcotest.(check int) "no links" 0 (List.length (Platform.all_links platform));
  let b = Builder.create ~n_pes:1 in
  let t0 = Builder.add_uniform_task b ~time:10. ~energy:5. () in
  let t1 = Builder.add_uniform_task b ~time:10. ~energy:5. ~deadline:100. () in
  Builder.connect b ~src:t0 ~dst:t1 ~volume:1_000.;
  let ctg = Builder.build_exn b in
  let s = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
  Alcotest.(check bool) "feasible" true (Noc_sched.Validate.is_feasible platform ctg s);
  let m = Noc_sched.Metrics.compute platform ctg s in
  Alcotest.(check (float 1e-9)) "no communication energy" 0.
    m.Noc_sched.Metrics.communication_energy;
  (* Serial execution forced. *)
  Alcotest.(check (float 1e-9)) "serial makespan" 20. m.Noc_sched.Metrics.makespan

let test_long_chain () =
  (* A 60-task chain: maximal dependency depth, no parallelism. *)
  let platform = Platform.homogeneous_mesh ~cols:2 ~rows:2 in
  let b = Builder.create ~n_pes:4 in
  let first = Builder.add_uniform_task b ~time:5. ~energy:1. () in
  let last =
    List.fold_left
      (fun prev _ ->
        let next = Builder.add_uniform_task b ~time:5. ~energy:1. () in
        Builder.connect b ~src:prev ~dst:next ~volume:100.;
        next)
      first
      (List.init 59 Fun.id)
  in
  ignore last;
  let ctg = Builder.build_exn b in
  let s = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
  Alcotest.(check bool) "chain feasible" true
    (Noc_sched.Validate.is_feasible platform ctg s);
  (* With zero heterogeneity and non-zero comm cost, the chain should
     stay on one tile: makespan = 300 exactly. *)
  Alcotest.(check (float 1e-6)) "clustered chain" 300. (Schedule.makespan s)

let test_wide_fan () =
  (* One source fanning out to 40 independent consumers. *)
  let platform = Platform.homogeneous_mesh ~cols:2 ~rows:2 in
  let b = Builder.create ~n_pes:4 in
  let src = Builder.add_uniform_task b ~time:5. ~energy:1. () in
  for _ = 1 to 40 do
    let c = Builder.add_uniform_task b ~time:20. ~energy:1. () in
    Builder.connect b ~src ~dst:c ~volume:10.
  done;
  let ctg = Builder.build_exn b in
  let s = Noc_edf.Edf.schedule platform ctg in
  Alcotest.(check bool) "fan feasible" true
    (Noc_sched.Validate.is_feasible platform ctg s);
  (* EDF spreads: the makespan must beat serial execution by far. *)
  Alcotest.(check bool) "parallelised" true (Schedule.makespan s < 5. +. (40. *. 20.))

let test_gantt_on_honeycomb () =
  let platform =
    Platform.heterogeneous ~seed:1 (Noc_noc.Topology.honeycomb ~cols:3 ~rows:3) ()
  in
  let params = { Noc_tgff.Params.default with n_tasks = 15 } in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:0 in
  let s = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
  Alcotest.(check bool) "ascii gantt renders" true
    (String.length (Noc_sched.Gantt.render platform ctg s) > 0);
  let path = Filename.temp_file "nocsched" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Noc_sched.Svg_gantt.save ~path platform ctg s;
      Alcotest.(check bool) "svg gantt renders" true
        ((Unix.stat path).Unix.st_size > 0))

let test_control_only_graph () =
  (* Every arc is control-only (volume 0): zero comm energy, but the
     ordering constraints still hold. *)
  let platform = Platform.homogeneous_mesh ~cols:2 ~rows:2 in
  let b = Builder.create ~n_pes:4 in
  let a = Builder.add_uniform_task b ~time:10. ~energy:1. () in
  let c = Builder.add_uniform_task b ~time:10. ~energy:1. () in
  let d = Builder.add_uniform_task b ~time:10. ~energy:1. () in
  Builder.connect b ~src:a ~dst:c ~volume:0.;
  Builder.connect b ~src:c ~dst:d ~volume:0.;
  let ctg = Builder.build_exn b in
  let s = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
  Alcotest.(check bool) "feasible" true (Noc_sched.Validate.is_feasible platform ctg s);
  Alcotest.(check bool) "ordering respected" true
    ((Schedule.placement s c).Schedule.start
     >= (Schedule.placement s a).Schedule.finish -. 1e-9
    && (Schedule.placement s d).Schedule.start
       >= (Schedule.placement s c).Schedule.finish -. 1e-9);
  let m = Noc_sched.Metrics.compute platform ctg s in
  Alcotest.(check (float 0.)) "zero comm energy" 0.
    m.Noc_sched.Metrics.communication_energy

let test_saturated_deadlines_all_schedulers_terminate () =
  (* Impossible deadlines: every scheduler must still terminate and
     return a complete (infeasible) schedule rather than loop. *)
  let platform = Noc_tgff.Category.platform in
  let params =
    { Noc_tgff.Params.default with n_tasks = 40; deadline_tightness = 0.1 }
  in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:0 in
  let check name s =
    Alcotest.(check int) (name ^ " complete") 40 (Schedule.n_tasks s)
  in
  check "eas" (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule;
  check "edf" (Noc_edf.Edf.schedule platform ctg);
  check "dls" (Noc_baselines.Dls.schedule platform ctg)

let suite =
  [
    Alcotest.test_case "single-tile platform" `Quick test_single_tile_platform;
    Alcotest.test_case "long chain" `Quick test_long_chain;
    Alcotest.test_case "wide fan" `Quick test_wide_fan;
    Alcotest.test_case "gantt on honeycomb" `Quick test_gantt_on_honeycomb;
    Alcotest.test_case "control-only graph" `Quick test_control_only_graph;
    Alcotest.test_case "impossible deadlines terminate" `Slow
      test_saturated_deadlines_all_schedulers_terminate;
  ]
