type stats = {
  runtime_seconds : float;
  misses_before_repair : int;
  misses_after_repair : int;
  repair : Repair.stats option;
}

type outcome = { schedule : Noc_sched.Schedule.t; stats : stats }

let count_misses ctg schedule =
  Array.fold_left
    (fun acc (task : Noc_ctg.Task.t) ->
      let p = Noc_sched.Schedule.placement schedule task.id in
      if Noc_sched.List_sched.lateness task p.Noc_sched.Schedule.finish > 0. then acc + 1
      else acc)
    0 (Noc_ctg.Ctg.tasks ctg)

let schedule ?(repair = true) ?weighting ?kernel ?pinned ?jobs:_ platform ctg =
  let span ?args name f = Noc_obs.Trace.span ~cat:"eas" ?args name f in
  span "eas/schedule"
    ~args:(fun () ->
      [
        ("tasks", Noc_obs.Trace.Int (Noc_ctg.Ctg.n_tasks ctg));
        ("pes", Noc_obs.Trace.Int (Noc_noc.Platform.n_pes platform));
      ])
  @@ fun () ->
  let t0 = Noc_util.Clock.wall_s () in
  let kernel =
    match kernel with
    | Some k -> k
    | None -> span "eas/kernel" (fun () -> Kernel.build platform ctg)
  in
  Kernel.check kernel ~caller:"Eas.schedule" platform ctg;
  let budget = span "eas/budget" (fun () -> Budget.compute ?weighting ~kernel ctg) in
  let base =
    span "eas/level_sched" (fun () ->
        Level_sched.run ~kernel ?pinned platform ctg budget)
  in
  let misses_before_repair = count_misses ctg base in
  (* Under a pinned mapping the repair pass may only reorder (LTS): a
     GTM migration would silently change the assignment — and with it
     the Eq.-3 energy the mapping search just optimised. *)
  let moves =
    match pinned with Some _ -> Some Repair.Lts_only | None -> None
  in
  let repaired, repair_stats =
    if repair && misses_before_repair > 0 then
      let s, st =
        span "eas/repair" (fun () ->
            Repair.run ~kernel ?moves platform ctg base)
      in
      (s, Some st)
    else (base, None)
  in
  let runtime_seconds = Noc_util.Clock.wall_s () -. t0 in
  {
    schedule = repaired;
    stats =
      {
        runtime_seconds;
        misses_before_repair;
        misses_after_repair = count_misses ctg repaired;
        repair = repair_stats;
      };
  }
