(* Bring your own platform and task graph.

   Shows the extension surface of the library: a custom torus platform
   with a hand-picked PE mix, a generated application saved to and
   reloaded from the text format (the role TGFF files play in the
   paper), per-resource utilisation reporting, and the DVFS slack
   reclamation pass.

   Run with:  dune exec examples/custom_platform.exe *)

let () =
  (* A 3x2 torus with two fast cores, two DSPs and two low-power cores. *)
  let topology = Noc_noc.Topology.torus ~cols:3 ~rows:2 in
  let kinds =
    [|
      Noc_noc.Pe.Risc_fast; Noc_noc.Pe.Dsp; Noc_noc.Pe.Risc_lowpower;
      Noc_noc.Pe.Risc_lowpower; Noc_noc.Pe.Dsp; Noc_noc.Pe.Risc_fast;
    |]
  in
  let platform =
    Noc_noc.Platform.make ~topology
      ~pes:(Array.mapi (fun index kind -> Noc_noc.Pe.of_kind ~index kind) kinds)
      ()
  in
  Format.printf "platform: %a@." Noc_noc.Platform.pp platform;

  (* Generate an application, save it, reload it — the reload is exact. *)
  let params = { Noc_tgff.Params.default with n_tasks = 40 } in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:5 in
  let path = Filename.temp_file "custom_platform" ".ctg" in
  Noc_ctg.Ctg_io.save ~path ctg;
  let ctg =
    match Noc_ctg.Ctg_io.load ~path with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  Sys.remove path;
  Format.printf "application: %a (round-tripped through %s)@.@." Noc_ctg.Ctg.pp ctg
    (Filename.basename path);

  (* Schedule and inspect. *)
  let outcome = Noc_eas.Eas.schedule platform ctg in
  let schedule = outcome.Noc_eas.Eas.schedule in
  let metrics = Noc_sched.Metrics.compute platform ctg schedule in
  Format.printf "%a@.@." Noc_sched.Metrics.pp metrics;

  let u = Noc_sched.Utilization.compute platform schedule in
  let busiest = Noc_sched.Utilization.busiest_pe u in
  Format.printf "busiest PE: %d (%.0f%% busy, %d tasks)@."
    busiest.Noc_sched.Utilization.pe
    (100. *. busiest.Noc_sched.Utilization.utilisation)
    busiest.Noc_sched.Utilization.n_tasks;
  (match Noc_sched.Utilization.busiest_link u with
  | Some l ->
    Format.printf "busiest link: %a (%d transactions)@.@." Noc_noc.Routing.pp_link
      l.Noc_sched.Utilization.link l.Noc_sched.Utilization.n_transactions
  | None -> Format.printf "no link traffic (everything co-located)@.@.");

  (* Reclaim leftover slack: downclock each task into its local slack on
     the default voltage/frequency ladder; starts and transfers stay put. *)
  let scaled = Noc_dvfs.Reclaim.run ctg schedule in
  Format.printf
    "DVFS reclamation: %d tasks downclocked, computation energy %.0f -> %.0f nJ \
     (%.1f%% saving)@."
    scaled.Noc_dvfs.Reclaim.downclocked
    scaled.Noc_dvfs.Reclaim.computation_energy_before
    scaled.Noc_dvfs.Reclaim.computation_energy_after
    (100. *. Noc_dvfs.Reclaim.reclaimed scaled
     /. scaled.Noc_dvfs.Reclaim.computation_energy_before)
