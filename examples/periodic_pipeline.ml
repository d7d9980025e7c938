(* Frame pipelining: scheduling a periodic application across periods.

   The paper's encoder must sustain 40 frames/s, but its CTG describes a
   single frame. Unrolling three consecutive frames (releases at k/40 s,
   deadlines shifted accordingly) lets EAS pipeline them: frame k+1
   starts while frame k is still in flight, so the platform can sustain
   rates whose period is shorter than one frame's latency.

   Run with:  dune exec examples/periodic_pipeline.exe *)

let () =
  let platform = Noc_msb.Platforms.av_2x2 in
  let clip = Noc_msb.Profile.Foreman in
  let frame = Noc_msb.Graphs.encoder ~platform ~clip () in

  (* Single-frame latency under EAS. *)
  let single = (Noc_eas.Eas.schedule platform frame).Noc_eas.Eas.schedule in
  Format.printf "single frame: latency %.0f us vs period %.0f us (40 frames/s)@.@."
    (Noc_sched.Schedule.makespan single)
    Noc_msb.Graphs.encoder_period;

  (* Three pipelined frames. *)
  let unrolled =
    Noc_ctg.Unroll.periodic frame ~period:Noc_msb.Graphs.encoder_period ~copies:3
  in
  let outcome = Noc_eas.Eas.schedule platform unrolled in
  let s = outcome.Noc_eas.Eas.schedule in
  let metrics = Noc_sched.Metrics.compute platform unrolled s in
  Format.printf "three frames pipelined: makespan %.0f us, %d deadline misses@."
    metrics.Noc_sched.Metrics.makespan
    (Noc_sched.Metrics.miss_count metrics);
  let n = Noc_ctg.Ctg.n_tasks frame in
  List.iter
    (fun k ->
      let ids = List.init n (fun i -> (k * n) + i) in
      let start =
        List.fold_left
          (fun acc i ->
            Float.min acc (Noc_sched.Schedule.placement s i).Noc_sched.Schedule.start)
          infinity ids
      in
      let finish =
        List.fold_left
          (fun acc i ->
            Float.max acc (Noc_sched.Schedule.placement s i).Noc_sched.Schedule.finish)
          0. ids
      in
      Format.printf "  frame %d: [%.0f, %.0f) us@." k start finish)
    [ 0; 1; 2 ];
  (* At 40 frames/s the period still exceeds one frame's latency, so no
     overlap is needed. Push to 100 frames/s: now the period is
     well below the latency and the pipeline must overlap frames. *)
  let rate = 100. in
  let period = 1.0e6 /. rate in
  let fast_frame =
    Noc_msb.Graphs.encoder ~ratio:(Noc_msb.Graphs.encoder_period /. period) ~platform
      ~clip ()
  in
  let fast = Noc_ctg.Unroll.periodic fast_frame ~period ~copies:3 in
  let outcome = Noc_eas.Eas.schedule platform fast in
  let s = outcome.Noc_eas.Eas.schedule in
  Format.printf "@.at %.0f frames/s (period %.0f us < single-frame latency):@." rate
    period;
  List.iter
    (fun k ->
      let ids = List.init n (fun i -> (k * n) + i) in
      let start =
        List.fold_left
          (fun acc i ->
            Float.min acc (Noc_sched.Schedule.placement s i).Noc_sched.Schedule.start)
          infinity ids
      in
      let finish =
        List.fold_left
          (fun acc i ->
            Float.max acc (Noc_sched.Schedule.placement s i).Noc_sched.Schedule.finish)
          0. ids
      in
      Format.printf "  frame %d: [%.0f, %.0f) us@." k start finish)
    [ 0; 1; 2 ];
  Format.printf
    "  -> consecutive windows overlap; misses: %d. Pipelining sustains rates@."
    (Noc_sched.Metrics.miss_count (Noc_sched.Metrics.compute platform fast s));
  Format.printf "     whose period is shorter than one frame's latency.@.";

  (* How fast can each scheduler go? Tighten the rate until frames miss. *)
  Format.printf "@.max sustained encoding rate (3-frame pipeline, foreman):@.";
  let sustainable scheduler rate =
    let period = 1.0e6 /. rate in
    let frame = Noc_msb.Graphs.encoder ~ratio:(Noc_msb.Graphs.encoder_period /. period)
        ~platform ~clip () in
    let unrolled = Noc_ctg.Unroll.periodic frame ~period ~copies:3 in
    let s = scheduler unrolled in
    (Noc_sched.Metrics.compute platform unrolled s).Noc_sched.Metrics.deadline_misses = []
  in
  List.iter
    (fun (name, scheduler) ->
      let rec search lo hi =
        (* Invariant: lo sustainable, hi not. *)
        if hi -. lo <= 1. then lo
        else
          let mid = (lo +. hi) /. 2. in
          if sustainable scheduler mid then search mid hi else search lo mid
      in
      let max_rate = search 10. 400. in
      Format.printf "  %-4s : %.0f frames/s@." name max_rate)
    [
      ("EAS", fun g -> (Noc_eas.Eas.schedule platform g).Noc_eas.Eas.schedule);
      ("EDF", fun g -> Noc_edf.Edf.schedule platform g);
    ]
