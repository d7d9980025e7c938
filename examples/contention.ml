(* Why communication must be co-scheduled (the paper's Sec. 1 argument).

   We schedule the same application twice with EAS: once with its real
   contention-aware communication scheduler, once with the naive
   fixed-delay model that earlier work used ("delay proportional to
   volume", no link contention). Both schedules are then replayed on the
   wormhole executor with real link arbitration.

   Run with:  dune exec examples/contention.exe *)

let () =
  let platform = Noc_tgff.Category.platform in
  let params =
    { Noc_tgff.Params.default with n_tasks = 120; deadline_tightness = 1.4 }
  in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:7 in
  Format.printf "application: %a on %a@.@." Noc_ctg.Ctg.pp ctg
    Noc_noc.Platform.pp platform;
  let lateness schedule =
    Array.fold_left
      (fun (count, worst) (task : Noc_ctg.Task.t) ->
        let late =
          Noc_sched.List_sched.lateness task
            (Noc_sched.Schedule.placement schedule task.id).Noc_sched.Schedule.finish
        in
        if late > 0. then (count + 1, Float.max worst late) else (count, worst))
      (0, 0.) (Noc_ctg.Ctg.tasks ctg)
  in
  let report name comm_model =
    let planned =
      (Noc_eas.Eas.schedule ~comm_model platform ctg).Noc_eas.Eas.schedule
    in
    let replay = Noc_sim.Executor.run platform ctg planned in
    let pm, _ = lateness planned in
    let rm, worst = lateness replay.Noc_sim.Executor.realised in
    Format.printf "%s:@." name;
    Format.printf "  planned deadline misses : %d@." pm;
    Format.printf "  replayed deadline misses: %d (worst lateness %.0f)@." rm worst;
    Format.printf "  time blocked on links   : %.0f@.@."
      replay.Noc_sim.Executor.waiting_time
  in
  report "contention-aware (the paper's scheduler)"
    Noc_sched.Comm_sched.Contention_aware;
  report "fixed-delay communication model (prior work's assumption)"
    Noc_sched.Comm_sched.Fixed_delay;
  Format.printf
    "The fixed-delay schedule believed it was feasible; real arbitration@.";
  Format.printf "disagrees. The contention-aware table replays exactly.@."
