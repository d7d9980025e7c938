(* The paper's category suites through the full offline pipeline, in
   one domain: cat1-slack (Category I, tightness 2.5, repair rarely
   runs) and cat2-tight (Category II, tightness 2.3, repair dominates).

   A pass carries every instance of the suite through the pipeline once.
   Runs measure whole passes only, so every instance weighs the same in
   every percentile and rate. *)

open Common
module Category = Noc_tgff.Category

type input = {
  platform : Noc_noc.Platform.t;
  texts : string array;  (** CTG texts, in visiting order. *)
}

let suite_size = 10

(* The shared 4x4 heterogeneous mesh of the category suites (the
   [Category.platform] configuration), built fresh so set-up pays for
   the construction and the route warm-up. *)
let fresh_platform () =
  let p = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
  Noc_noc.Platform.warm_routes p;
  p

(* Instance [index] of the category. Quick mode keeps the category's
   regime at a tenth of the size, for the smoke test. *)
let graph ~quick ~platform kind index =
  if quick then
    Noc_tgff.Generate.generate
      ~params:(Category.scaled_params kind ~scale:0.1)
      ~platform ~seed:(Category.seed_of kind index)
  else Category.benchmark ~platform kind ~index

(* Builds the platform, generates the suite's CTG texts (indices
   [10 * suite .. 10 * suite + 9]; suite 0 is the paper's 0-9), runs
   the first one as an untimed warm-up instance and visits them in a
   seeded order. *)
let setup ~quick ~kind ~suite ~seed =
  let platform = fresh_platform () in
  let texts =
    Array.init suite_size (fun i ->
        Noc_ctg.Ctg_io.to_string (graph ~quick ~platform kind ((suite * suite_size) + i)))
  in
  ignore (Pipeline.run ~staged:false platform texts.(0));
  Noc_util.Prng.shuffle (Noc_util.Prng.create ~seed) texts;
  { platform; texts }

(* Per-pass totals and the per-instance results of the first pass, which
   later passes must reproduce exactly. *)
type tally = {
  checks : Checks.t;
  latency : Samples.t;  (** Per-instance wall time, ms. *)
  per_instance : Samples.t array;
      (** The same per instance, each scaled to the nominal host by the
          median reference-kernel probe of its own pass. *)
  tasks_of : int array;
  mutable busy_s : float;  (** Summed instance time. *)
  mutable passes : int;
  mutable tasks : int;
  mutable deadline_tasks : int;
  mutable misses : int;
  mutable energy : float;  (** Of the first pass. *)
  mutable repairs : Noc_eas.Repair.stats list;  (** Of every repair-active instance. *)
  mutable downclocked : int;
  first : string option array;  (** First-pass schedule text per instance. *)
}

let tally () =
  {
    checks = Checks.create ();
    latency = Samples.create ();
    per_instance = Array.init suite_size (fun _ -> Samples.create ());
    tasks_of = Array.make suite_size 0;
    busy_s = 0.;
    passes = 0;
    tasks = 0;
    deadline_tasks = 0;
    misses = 0;
    energy = 0.;
    repairs = [];
    downclocked = 0;
    first = Array.make suite_size None;
  }

(* One pass over every instance. [reference] holds the schedule texts
   this pass must reproduce byte for byte (another pass of this run, or
   the untraced pass when tracing). *)
let pass ?timer ~staged ~reference input t =
  let probes = Samples.create () and times = Array.make suite_size 0. in
  Array.iteri
    (fun i text ->
      Checks.attempt t.checks;
      Samples.add probes (Calibrate.probe ());
      let t0 = now () in
      let result = Pipeline.run ?timer ~staged input.platform text in
      let ms = ms_since t0 in
      times.(i) <- ms;
      Samples.add t.latency ms;
      t.busy_s <- t.busy_s +. (ms /. 1000.);
      match result with
      | Error msg -> Checks.fail t.checks (Printf.sprintf "instance %d: %s" i msg)
      | Ok raw ->
        let o = Pipeline.assess input.platform raw in
        List.iter (fun e -> Checks.fail t.checks (Printf.sprintf "instance %d: %s" i e)) o.errors;
        (match reference.(i) with
        | None -> reference.(i) <- Some o.schedule_text
        | Some s ->
          if s <> o.schedule_text then
            Checks.fail t.checks (Printf.sprintf "instance %d: schedule differs between runs" i));
        t.tasks <- t.tasks + o.tasks;
        t.tasks_of.(i) <- o.tasks;
        t.deadline_tasks <- t.deadline_tasks + o.deadline_tasks;
        t.misses <- t.misses + o.misses;
        if t.passes = 0 then t.energy <- t.energy +. o.energy;
        t.repairs <- Option.to_list o.repair @ t.repairs;
        t.downclocked <- t.downclocked + o.downclocked)
    input.texts;
  (* Scaled by this pass's probes, not the run's: the host drifts within
     a run, and a cat2-tight pass lasts seconds. On one set of five
     runs, cat2-tight's tasks_per_s spread 2.3% scaled so, against 9.6%
     scaled by the run's median probe. *)
  let scale = Calibrate.nominal_ms /. Samples.median probes in
  Array.iteri (fun i ms -> Samples.add t.per_instance.(i) (ms *. scale)) times;
  t.passes <- t.passes + 1

let end_to_end ~(setup : Calibrate.setup) ~seconds input =
  let t = tally () in
  (* Peak memory of the set-up, warm-up and one whole pass, read before
     any further set-up adds its data to the heap. *)
  let peak_rss = ref 0. in
  ignore
    (rounds_for ~between:(Calibrate.setup_due setup) ~seconds (fun () ->
         pass ~staged:false ~reference:t.first input t;
         if t.passes = 1 then peak_rss := proc_status_mb "VmHWM"));
  Calibrate.setup_rest setup;
  let n = Samples.count t.latency in
  let per_pass x = x /. float_of_int t.passes in
  let medians = Samples.create () in
  Array.iter (fun x -> Samples.add medians (Samples.median x)) t.per_instance;
  let typical_pass_s = Samples.total medians /. 1000. in
  let tasks_pass = Array.fold_left ( + ) 0 t.tasks_of in
  Printf.printf
    "  raw wall clock, whole run, not per instance: setup_s %g tasks_per_s %g p50 %g p99 %g\n"
    (Samples.median setup.raw) (float_of_int t.tasks /. t.busy_s) (Samples.median t.latency)
    (Samples.percentile t.latency 99.);
  let miss_ratio = float_of_int t.misses /. float_of_int (max 1 t.deadline_tasks) in
  let fail_ratio = float_of_int t.checks.failed /. float_of_int t.checks.attempted in
  let metrics =
    [
      metric ~samples:(Samples.count setup.raw) "setup_s" "s"
        (Samples.median setup.scaled);
      metric ~samples:n "tasks_per_s" "tasks/s" (float_of_int tasks_pass /. typical_pass_s);
      metric ~samples:n "req_per_s" "req/s" (float_of_int suite_size /. typical_pass_s);
      metric ~samples:suite_size "latency_p50_ms" "ms" (Samples.median medians);
      metric ~samples:suite_size "latency_p99_ms" "ms" (Samples.percentile medians 99.);
      metric ~samples:t.passes "energy_nj" "nJ" t.energy;
      metric ~samples:n "deadlines_met_ratio" "ratio" (1. -. miss_ratio);
      metric ~samples:n "ok_ratio" "ratio" (1. -. fail_ratio);
      metric "peak_rss_mb" "MB" !peak_rss;
    ]
  in
  Calibrate.describe ~setup;
  Printf.printf "  %d passes of %d instances; deadline_misses %g per pass; fail_ratio %g\n"
    t.passes suite_size (per_pass (float_of_int t.misses)) fail_ratio;
  (t.checks, metrics)

(* Per-layer numbers from stage timers around the public calls, plus
   the tracing overhead against an untraced run of as many passes. *)
let traced ~seconds input =
  let plain = tally () in
  ignore
    (rounds_for ~seconds:(seconds /. 2.) (fun () ->
         pass ~staged:false ~reference:plain.first input plain));
  let rec_ = Pipeline.recorder () in
  let timer = Pipeline.recording rec_ in
  let staged = tally () in
  for _ = 1 to plain.passes do
    pass ~timer ~staged:true ~reference:plain.first input staged
  done;
  let checks = Checks.create () in
  checks.attempted <- plain.checks.attempted + staged.checks.attempted;
  checks.failed <- plain.checks.failed + staged.checks.failed;
  let layer_metrics =
    Layers.eas_metrics ~checks ~passes:staged.passes ~instance:staged.latency
      ~repairs:staged.repairs ~downclocked:staged.downclocked rec_
  in
  Layers.print_table ~passes:staged.passes ~instance:staged.latency rec_;
  let overhead = (staged.busy_s -. plain.busy_s) /. plain.busy_s *. 100. in
  (checks, layer_metrics @ [ metric ~samples:(Samples.count staged.latency) "trace.overhead_pct" "%" overhead ])
