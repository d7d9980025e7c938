(* The paper's first multimedia workload: an MP3/H.263 audio/video
   encoder pair (24 tasks) scheduled on a heterogeneous 2x2 NoC under a
   40 frames/s deadline, for each of the three clips.

   Run with:  dune exec examples/av_encoder.exe *)

let () =
  let platform = Noc_msb.Platforms.av_2x2 in
  Format.printf "A/V encoder on %a, deadline %.0f us (40 frames/s)@.@."
    Noc_noc.Platform.pp platform Noc_msb.Graphs.encoder_period;
  List.iter
    (fun clip ->
      let ctg = Noc_msb.Graphs.encoder ~platform ~clip () in
      let eas = Noc_eas.Eas.schedule platform ctg in
      let edf = Noc_edf.Edf.schedule platform ctg in
      let m s = Noc_sched.Metrics.compute platform ctg s in
      let me = m eas.Noc_eas.Eas.schedule and md = m edf in
      Format.printf
        "clip %-8s EAS %8.0f nJ (comp %7.0f + comm %6.0f, %d misses)@."
        (Noc_msb.Profile.clip_name clip)
        me.total_energy me.computation_energy me.communication_energy
        (Noc_sched.Metrics.miss_count me);
      Format.printf
        "              EDF %8.0f nJ (comp %7.0f + comm %6.0f) -> %.1f%% saved@."
        md.total_energy md.computation_energy md.communication_energy
        (100. *. (md.total_energy -. me.total_energy) /. md.total_energy);
      Format.printf "              average hops per packet: EDF %.2f, EAS %.2f@.@."
        md.average_hops me.average_hops)
    Noc_msb.Profile.all_clips;
  (* Show the foreman schedule itself. *)
  let ctg = Noc_msb.Graphs.encoder ~platform ~clip:Noc_msb.Profile.Foreman () in
  let schedule = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
  Format.printf "EAS schedule, foreman (letters are tasks, # is link traffic):@.";
  print_string (Noc_sched.Gantt.render ~width:68 platform ctg schedule)
