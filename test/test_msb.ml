(* Tests for the Multimedia System Benchmarks (Sec. 6.2). *)

module Graphs = Noc_msb.Graphs
module Profile = Noc_msb.Profile
module Platforms = Noc_msb.Platforms
module Ctg = Noc_ctg.Ctg

let test_task_counts () =
  (* The paper's partition sizes: 24 / 16 / 40 tasks. *)
  let enc = Graphs.encoder ~platform:Platforms.av_2x2 ~clip:Profile.Foreman () in
  let dec = Graphs.decoder ~platform:Platforms.av_2x2 ~clip:Profile.Foreman () in
  let int_ = Graphs.integrated ~platform:Platforms.av_3x3 ~clip:Profile.Foreman () in
  Alcotest.(check int) "encoder 24 tasks" 24 (Ctg.n_tasks enc);
  Alcotest.(check int) "decoder 16 tasks" 16 (Ctg.n_tasks dec);
  Alcotest.(check int) "integrated 40 tasks" 40 (Ctg.n_tasks int_)

let test_platform_sizes () =
  Alcotest.(check int) "2x2" 4 (Noc_noc.Platform.n_pes Platforms.av_2x2);
  Alcotest.(check int) "3x3" 9 (Noc_noc.Platform.n_pes Platforms.av_3x3)

let test_deadlines_from_frame_rates () =
  Alcotest.(check (float 1e-6)) "encoder period = 1/40 s" 25_000. Graphs.encoder_period;
  let dec = Graphs.decoder ~platform:Platforms.av_2x2 ~clip:Profile.Akiyo () in
  List.iter
    (fun i ->
      match (Ctg.task dec i).Noc_ctg.Task.deadline with
      | None -> ()
      | Some d ->
        Alcotest.(check bool) "decoder deadline = 1/67 s" true (Float.abs (d -. 14_925.37) < 1.))
    (Ctg.deadline_tasks dec);
  Alcotest.(check bool) "decoder has deadline tasks" true (Ctg.deadline_tasks dec <> []);
  let enc = Graphs.encoder ~platform:Platforms.av_2x2 ~clip:Profile.Akiyo () in
  List.iter
    (fun i ->
      match (Ctg.task enc i).Noc_ctg.Task.deadline with
      | None -> ()
      | Some d -> Alcotest.(check (float 1e-6)) "deadline is the period" 25_000. d)
    (Ctg.deadline_tasks enc);
  Alcotest.(check bool) "encoder has deadline tasks" true
    (Ctg.deadline_tasks enc <> [])

let test_ratio_scales_deadlines () =
  let base = Graphs.encoder ~platform:Platforms.av_2x2 ~clip:Profile.Akiyo () in
  let faster = Graphs.encoder ~ratio:2.0 ~platform:Platforms.av_2x2 ~clip:Profile.Akiyo () in
  let deadline g =
    match Ctg.deadline_tasks g with
    | t :: _ -> Option.get (Ctg.task g t).Noc_ctg.Task.deadline
    | [] -> Alcotest.fail "no deadline"
  in
  Alcotest.(check (float 1e-6)) "halved deadline" (deadline base /. 2.) (deadline faster)

let test_invalid_ratio_rejected () =
  Alcotest.(check bool) "non-positive ratio" true
    (try
       ignore (Graphs.encoder ~ratio:0. ~platform:Platforms.av_2x2 ~clip:Profile.Akiyo ());
       false
     with Invalid_argument _ -> true)

let test_clip_scaling_monotone () =
  (* akiyo < foreman < toybox in both compute demand and volume. *)
  let total_time clip =
    let g = Graphs.encoder ~platform:Platforms.av_2x2 ~clip () in
    Array.fold_left
      (fun acc (t : Noc_ctg.Task.t) -> acc +. Noc_util.Stats.mean t.exec_times)
      0. (Ctg.tasks g)
  in
  let total_volume clip =
    Ctg.total_volume (Graphs.encoder ~platform:Platforms.av_2x2 ~clip ())
  in
  Alcotest.(check bool) "time ordering" true
    (total_time Profile.Akiyo < total_time Profile.Foreman
    && total_time Profile.Foreman < total_time Profile.Toybox);
  Alcotest.(check bool) "volume ordering" true
    (total_volume Profile.Akiyo < total_volume Profile.Foreman
    && total_volume Profile.Foreman < total_volume Profile.Toybox)

let test_graphs_schedulable () =
  (* Every MSB instance must be schedulable by EAS without misses at the
     baseline rates on its target platform. *)
  List.iter
    (fun clip ->
      let check name platform g =
        let outcome = Noc_eas.Eas.schedule platform g in
        Alcotest.(check int)
          (Printf.sprintf "%s/%s no misses" name (Profile.clip_name clip))
          0 outcome.Noc_eas.Eas.stats.Noc_eas.Eas.misses_after_repair;
        let hard =
          Noc_sched.Validate.check platform g outcome.Noc_eas.Eas.schedule
          |> List.filter (function
               | Noc_sched.Validate.Deadline_miss _ -> false
               | _ -> true)
        in
        Alcotest.(check int) "feasible" 0 (List.length hard)
      in
      check "encoder" Platforms.av_2x2 (Graphs.encoder ~platform:Platforms.av_2x2 ~clip ());
      check "decoder" Platforms.av_2x2 (Graphs.decoder ~platform:Platforms.av_2x2 ~clip ());
      check "integrated" Platforms.av_3x3
        (Graphs.integrated ~platform:Platforms.av_3x3 ~clip ()))
    Profile.all_clips

let test_eas_saves_energy_on_all_msb () =
  List.iter
    (fun clip ->
      let check name platform g =
        let eas = (Noc_eas.Eas.schedule platform g).Noc_eas.Eas.schedule in
        let edf = Noc_edf.Edf.schedule platform g in
        let e s = (Noc_sched.Metrics.compute platform g s).Noc_sched.Metrics.total_energy in
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s saves energy" name (Profile.clip_name clip))
          true
          (e eas < e edf)
      in
      check "encoder" Platforms.av_2x2 (Graphs.encoder ~platform:Platforms.av_2x2 ~clip ());
      check "decoder" Platforms.av_2x2 (Graphs.decoder ~platform:Platforms.av_2x2 ~clip ());
      check "integrated" Platforms.av_3x3
        (Graphs.integrated ~platform:Platforms.av_3x3 ~clip ()))
    Profile.all_clips

let test_integrated_is_disjoint_union () =
  let g = Graphs.integrated ~platform:Platforms.av_3x3 ~clip:Profile.Foreman () in
  (* Two connected components: 2 of the sources feed the encoder side,
     the decoder side starts at av_demux. *)
  Alcotest.(check bool) "several sources" true (List.length (Ctg.sources g) >= 3);
  Alcotest.(check bool) "several deadline tasks" true
    (List.length (Ctg.deadline_tasks g) >= 4)

let test_profile_names () =
  Alcotest.(check (list string)) "clip names"
    [ "akiyo"; "foreman"; "toybox" ]
    (List.map Profile.clip_name Profile.all_clips)

let suite =
  [
    Alcotest.test_case "task counts (24/16/40)" `Quick test_task_counts;
    Alcotest.test_case "platform sizes" `Quick test_platform_sizes;
    Alcotest.test_case "deadlines from frame rates" `Quick test_deadlines_from_frame_rates;
    Alcotest.test_case "ratio scales deadlines" `Quick test_ratio_scales_deadlines;
    Alcotest.test_case "invalid ratio rejected" `Quick test_invalid_ratio_rejected;
    Alcotest.test_case "clip scaling monotone" `Quick test_clip_scaling_monotone;
    Alcotest.test_case "all MSB schedulable" `Slow test_graphs_schedulable;
    Alcotest.test_case "EAS saves energy on all MSB" `Slow test_eas_saves_energy_on_all_msb;
    Alcotest.test_case "integrated union" `Quick test_integrated_is_disjoint_union;
    Alcotest.test_case "profile names" `Quick test_profile_names;
  ]
