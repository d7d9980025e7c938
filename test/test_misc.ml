(* Assorted cross-cutting tests: router latency, category suites, repair
   statistics, fixed-delay end-to-end behaviour. *)

module Platform = Noc_noc.Platform
module Metrics = Noc_sched.Metrics

let test_router_latency_duration () =
  let mk latency =
    Platform.make
      ~topology:(Noc_noc.Topology.mesh ~cols:3 ~rows:3)
      ~pes:(Array.init 9 (fun index -> Noc_noc.Pe.of_kind ~index Noc_noc.Pe.Dsp))
      ~link_bandwidth:100. ~router_latency:latency ()
  in
  let fast = mk 0. and slow = mk 2. in
  (* 0 -> 2 crosses 3 routers: 2 intermediate-hop delays. *)
  Alcotest.(check (float 1e-9)) "latency-free" 1.
    (Platform.comm_duration fast ~src:0 ~dst:2 ~bits:100.);
  Alcotest.(check (float 1e-9)) "with head latency" 5.
    (Platform.comm_duration slow ~src:0 ~dst:2 ~bits:100.);
  Alcotest.(check (float 0.)) "same tile still free" 0.
    (Platform.comm_duration slow ~src:4 ~dst:4 ~bits:100.);
  Alcotest.(check bool) "negative latency rejected" true
    (try
       ignore
         (Platform.make
            ~topology:(Noc_noc.Topology.mesh ~cols:2 ~rows:2)
            ~pes:(Array.init 4 (fun index -> Noc_noc.Pe.of_kind ~index Noc_noc.Pe.Dsp))
            ~router_latency:(-1.) ());
       false
     with Invalid_argument _ -> true)

let test_router_latency_end_to_end () =
  (* The whole stack (scheduler, validator, executor) must agree on the
     latency-extended durations. *)
  let platform =
    Platform.make
      ~topology:(Noc_noc.Topology.mesh ~cols:4 ~rows:4)
      ~pes:(Array.init 16 (fun index -> Noc_noc.Pe.of_kind ~index Noc_noc.Pe.Dsp))
      ~router_latency:1.5 ()
  in
  let params = { Noc_tgff.Params.default with n_tasks = 40 } in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:3 in
  let s = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
  Alcotest.(check (list string)) "feasible with latency" []
    (List.map
       (Format.asprintf "%a" Noc_sched.Validate.pp_violation)
       (Noc_sched.Validate.check platform ctg s));
  let replay = Noc_sim.Executor.run platform ctg s in
  Alcotest.(check (float 1e-6)) "replays exactly with latency" 0.
    replay.Noc_sim.Executor.waiting_time

let test_category_suites () =
  (* The suite constructor mirrors per-index benchmarks. *)
  let by_suite = List.nth (Noc_tgff.Category.suite Noc_tgff.Category.Category_i) 2 in
  let by_index = Noc_tgff.Category.benchmark Noc_tgff.Category.Category_i ~index:2 in
  Alcotest.(check int) "same graph" (Noc_ctg.Ctg.n_edges by_suite)
    (Noc_ctg.Ctg.n_edges by_index);
  Alcotest.(check bool) "negative index rejected" true
    (try
       ignore (Noc_tgff.Category.benchmark Noc_tgff.Category.Category_i ~index:(-1));
       false
     with Invalid_argument _ -> true)

let test_repair_stats_counts () =
  let platform = Noc_tgff.Category.platform in
  let rec find_missing seed =
    if seed > 40 then Alcotest.fail "no missing seed"
    else begin
      let params =
        { Noc_tgff.Params.default with n_tasks = 60; deadline_tightness = 1.3 }
      in
      let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
      let base = Noc_eas.Eas.schedule ~repair:false platform ctg in
      if base.Noc_eas.Eas.stats.Noc_eas.Eas.misses_before_repair > 0 then (ctg, base)
      else find_missing (seed + 1)
    end
  in
  let ctg, base = find_missing 0 in
  let _, stats =
    Noc_eas.Repair.run ~kernel:(Noc_eas.Kernel.build platform ctg) platform ctg
      base.Noc_eas.Eas.schedule
  in
  Alcotest.(check bool) "evaluations bound accepted moves" true
    (stats.Noc_eas.Repair.evaluations
    >= stats.Noc_eas.Repair.accepted_swaps + stats.Noc_eas.Repair.accepted_migrations)

let test_fixed_delay_end_to_end () =
  (* An EAS run under the fixed-delay model may plan link conflicts; the
     validator must report them as Link_conflict (not crash), and the
     metrics must still compute. *)
  let platform = Noc_tgff.Category.platform in
  let params = { Noc_tgff.Params.default with n_tasks = 120 } in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:0 in
  let s =
    let kernel =
      Noc_eas.Kernel.build ~comm_model:Noc_sched.Comm_sched.Fixed_delay platform ctg
    in
    (Noc_eas.Eas.schedule ~kernel platform ctg).Noc_eas.Eas.schedule
  in
  let violations = Noc_sched.Validate.check platform ctg s in
  let only_expected =
    List.for_all
      (function
        | Noc_sched.Validate.Link_conflict _ | Noc_sched.Validate.Deadline_miss _ -> true
        | Noc_sched.Validate.Malformed _ | Noc_sched.Validate.Task_overlap _
        | Noc_sched.Validate.Dependency _ -> false)
      violations
  in
  Alcotest.(check bool) "only link conflicts / misses" true only_expected;
  Alcotest.(check bool) "metrics still computable" true
    ((Metrics.compute platform ctg s).Metrics.total_energy > 0.)

let test_text_table_explicit_align () =
  let out =
    Noc_util.Text_table.render
      ~align:[ Noc_util.Text_table.Right; Noc_util.Text_table.Left ]
      ~header:[ "n"; "name" ]
      [ [ "1"; "x" ]; [ "10"; "yy" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check string) "right then left" "|  1 | x    |" (List.nth lines 2)

let test_torus_platform_schedules () =
  let platform =
    Platform.heterogeneous ~seed:9 (Noc_noc.Topology.torus ~cols:3 ~rows:3) ()
  in
  let params = { Noc_tgff.Params.default with n_tasks = 40 } in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:1 in
  let s = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
  Alcotest.(check bool) "feasible on torus" true
    (Noc_sched.Validate.check platform ctg s
    |> List.for_all (function Noc_sched.Validate.Deadline_miss _ -> true | _ -> false))

let suite =
  [
    Alcotest.test_case "router latency durations" `Quick test_router_latency_duration;
    Alcotest.test_case "router latency end to end" `Quick test_router_latency_end_to_end;
    Alcotest.test_case "category suites" `Quick test_category_suites;
    Alcotest.test_case "repair stats counts" `Quick test_repair_stats_counts;
    Alcotest.test_case "fixed-delay end to end" `Quick test_fixed_delay_end_to_end;
    Alcotest.test_case "explicit table alignment" `Quick test_text_table_explicit_align;
    Alcotest.test_case "torus platform schedules" `Quick test_torus_platform_schedules;
  ]
