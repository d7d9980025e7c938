(* Quickstart: build a small application task graph by hand, schedule it
   on a heterogeneous 2x2 NoC with the energy-aware scheduler, and
   inspect the result.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A heterogeneous 2x2 mesh: a fast RISC, a DSP, a low-power core and
     an accelerator (one per tile, XY routing between them). *)
  let platform = Noc_msb.Platforms.av_2x2 in

  (* The application: a diamond of six tasks, similar to the CTG of the
     paper's Fig. 1. Costs are given per PE: element k of each array is
     the execution time / energy on PE k. *)
  let b = Noc_ctg.Builder.create ~n_pes:(Noc_noc.Platform.n_pes platform) in
  let add name exec_times energies deadline =
    Noc_ctg.Builder.add_task b ~name ~exec_times ~energies ?deadline ()
  in
  let t0 = add "read" [| 60.; 140.; 110.; 180. |] [| 190.; 140.; 50.; 250. |] None in
  let t1 = add "filter" [| 220.; 90.; 380.; 120. |] [| 700.; 90.; 170.; 230. |] None in
  let t2 = add "analyze" [| 180.; 100.; 320.; 130. |] [| 580.; 100.; 145.; 250. |] None in
  let t3 = add "encode" [| 260.; 120.; 460.; 90. |] [| 840.; 120.; 210.; 170. |] None in
  let t4 = add "mux" [| 70.; 150.; 120.; 200. |] [| 220.; 150.; 55.; 380. |] None in
  let t5 = add "emit" [| 50.; 110.; 90.; 150. |] [| 160.; 110.; 40.; 290. |] (Some 1500.) in
  let connect src dst volume = Noc_ctg.Builder.connect b ~src ~dst ~volume in
  connect t0 t1 48_000.;
  connect t0 t2 48_000.;
  connect t1 t3 32_000.;
  connect t2 t3 16_000.;
  connect t2 t4 8_000.;
  connect t3 t4 24_000.;
  connect t4 t5 12_000.;
  let ctg = Noc_ctg.Builder.build_exn b in

  (* Schedule with EAS (slack budgeting + level scheduling + repair). *)
  let outcome = Noc_eas.Eas.schedule platform ctg in
  let schedule = outcome.Noc_eas.Eas.schedule in

  Format.printf "Application: %a on %a@.@." Noc_ctg.Ctg.pp ctg
    Noc_noc.Platform.pp platform;
  Format.printf "%a@.@."
    Noc_sched.Metrics.pp (Noc_sched.Metrics.compute platform ctg schedule);

  (* Where did every task land? *)
  Array.iter
    (fun (p : Noc_sched.Schedule.placement) ->
      let task = Noc_ctg.Ctg.task ctg p.task in
      let pe = Noc_noc.Platform.pe platform p.pe in
      Format.printf "  %-8s -> pe %d (%s), runs [%g, %g)@." task.Noc_ctg.Task.name
        p.pe (Noc_noc.Pe.kind_name pe.Noc_noc.Pe.kind) p.start p.finish)
    (Noc_sched.Schedule.placements schedule);

  (* Independent feasibility check (Definitions 3-4, dependencies,
     deadlines). *)
  (match Noc_sched.Validate.check platform ctg schedule with
  | [] -> Format.printf "@.schedule verified: feasible.@.@."
  | violations ->
    Format.printf "@.violations:@.";
    List.iter (Format.printf "  %a@." Noc_sched.Validate.pp_violation) violations);

  print_string (Noc_sched.Gantt.render ~width:64 platform ctg schedule);

  (* Compare with the performance-greedy EDF baseline. *)
  let edf = Noc_edf.Edf.schedule platform ctg in
  let eas_energy = (Noc_sched.Metrics.compute platform ctg schedule).total_energy in
  let edf_energy = (Noc_sched.Metrics.compute platform ctg edf).total_energy in
  Format.printf "@.EAS energy %.0f nJ vs EDF %.0f nJ: %.1f%% saved.@." eas_energy
    edf_energy
    (100. *. (edf_energy -. eas_energy) /. edf_energy)
