type row = {
  seed : int;
  aware_planned_misses : int;
  aware_replay_misses : int;
  aware_max_deviation : float;
  fixed_planned_misses : int;
  fixed_replay_misses : int;
  fixed_max_lateness : float;
  fixed_link_waiting : float;
}

(* Misses and the worst lateness, by the rule of every report. *)
let miss_stats ctg schedule =
  List.fold_left
    (fun (count, worst) (_, late) -> (count + 1, Float.max worst late))
    (0, 0.)
    (Noc_sched.Metrics.misses ctg schedule)

let max_deviation planned realised =
  let n = Noc_sched.Schedule.n_tasks planned in
  let worst = ref 0. in
  for i = 0 to n - 1 do
    let p = Noc_sched.Schedule.placement planned i
    and q = Noc_sched.Schedule.placement realised i in
    worst :=
      Float.max !worst
        (Float.abs (p.Noc_sched.Schedule.finish -. q.Noc_sched.Schedule.finish))
  done;
  !worst

let run ?jobs ?(seeds = [ 0; 1; 2; 7; 8 ]) () =
  let platform = Noc_tgff.Category.platform in
  Noc_noc.Platform.warm_routes platform;
  let params =
    { Noc_tgff.Params.default with n_tasks = 120; deadline_tightness = 1.4 }
  in
  Noc_util.Pool.map_list ?jobs
    (fun seed ->
      Runner.traced ~label:(Printf.sprintf "ablation/seed=%d" seed) @@ fun () ->
      let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
      let aware = (Pipeline.evaluate platform ctg (Pipeline.request Runner.Eas)).schedule in
      (* The fixed-delay arm is the ablation's wrong model: its links
         overlap, so it would fail the certifier by design and is only
         replayed, never certified. *)
      let fixed =
        let kernel =
          Noc_eas.Kernel.build ~comm_model:Noc_sched.Comm_sched.Fixed_delay platform ctg
        in
        (Noc_eas.Eas.schedule ~kernel platform ctg).schedule
      in
      let aware_replay = Noc_sim.Executor.run platform ctg aware in
      let fixed_replay = Noc_sim.Executor.run platform ctg fixed in
      let aware_planned_misses, _ = miss_stats ctg aware in
      let aware_replay_misses, _ = miss_stats ctg aware_replay.Noc_sim.Executor.realised in
      let fixed_planned_misses, _ = miss_stats ctg fixed in
      let fixed_replay_misses, fixed_max_lateness =
        miss_stats ctg fixed_replay.Noc_sim.Executor.realised
      in
      {
        seed;
        aware_planned_misses;
        aware_replay_misses;
        aware_max_deviation = max_deviation aware aware_replay.Noc_sim.Executor.realised;
        fixed_planned_misses;
        fixed_replay_misses;
        fixed_max_lateness;
        fixed_link_waiting = fixed_replay.Noc_sim.Executor.waiting_time;
      })
    seeds

let render rows =
  let header =
    [
      "seed"; "aware: plan miss"; "replay miss"; "max dev";
      "fixed: plan miss"; "replay miss"; "max late"; "link wait";
    ]
  in
  let row_of r =
    [
      string_of_int r.seed;
      string_of_int r.aware_planned_misses;
      string_of_int r.aware_replay_misses;
      Printf.sprintf "%.3g" r.aware_max_deviation;
      string_of_int r.fixed_planned_misses;
      string_of_int r.fixed_replay_misses;
      Printf.sprintf "%.0f" r.fixed_max_lateness;
      Printf.sprintf "%.0f" r.fixed_link_waiting;
    ]
  in
  Printf.sprintf
    "Contention ablation: schedules built under a fixed-delay communication\n\
     model look feasible but miss deadlines when replayed with real link\n\
     arbitration; contention-aware schedules replay exactly.\n%s\n"
    (Noc_util.Text_table.render ~header (List.map row_of rows))
