(* Per-layer metrics of the traced runs. Every traced run prints every
   name below (the [per_layer] list of BENCHMARK.json); see [complete]
   for a layer the workload never calls. *)

open Common

(* Per stage: p50 per call and total per pass. *)
let stage_names =
  List.concat_map (fun s -> [ (s ^ "_ms", "ms"); (s ^ "_pass_ms", "ms") ]) Pipeline.stages

let eas_names =
  stage_names
  @ [
      ("repair.calls", "count");
      ("repair.evaluations", "count");
      ("repair.ms_per_evaluation", "ms");
      ("repair.accept_ratio", "ratio");
      ("reclaim.downclocked", "count");
      ("trace.stage_coverage_pct", "%");
      ("trace.overhead_pct", "%");
    ]

(* Request classes of serve-mix, as the client labels them. *)
let serve_classes = [ "hit"; "miss"; "dvfs"; "reschedule"; "simulate"; "refused"; "malformed" ]

let serve_names =
  List.concat_map
    (fun c -> [ ("serve." ^ c ^ "_ms", "ms"); ("serve." ^ c ^ "_p99_ms", "ms") ])
    serve_classes
  @ List.map (fun c -> ("serve.handle." ^ c ^ "_ms", "ms")) serve_classes
  @ [
      ("serve.transport_ms", "ms");
      ("serve.cache_hit_ratio", "ratio");
      ("serve.kernel_cache_hit_ratio", "ratio");
      ("serve.parse_cache_hit_ratio", "ratio");
      ("serve.cache_evictions", "count");
      ("serve.daemon_rss_start_mb", "MB");
      ("serve.daemon_rss_end_mb", "MB");
    ]

let all_names = eas_names @ serve_names

(* [complete ms] lists every per-layer metric in [all_names] order,
   taking measured values from [ms]. The result line must name every
   per-layer metric, so one the workload never measures (serve.* on the
   offline suites) reads 0 over 0 samples; the names of those are
   printed on a line of their own, so a 0 is not read as a result. *)
let complete ms =
  let unmeasured = List.filter (fun (name, _) -> not (List.exists (fun m -> m.name = name) ms)) all_names in
  if unmeasured <> [] then
    Printf.printf "  not measured on this workload, reported as 0 over 0 samples: %s\n"
      (String.concat " " (List.map fst unmeasured));
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.name = name) ms with
      | Some m -> m
      | None -> metric ~samples:0 name unit 0.)
    all_names

(* The EAS-pipeline layers from a stage recorder. [instance] holds the
   traced instances' wall times; the stages must account for them: a
   sum outside [90%, 100.5%] of the instance time fails a check. *)
let eas_metrics ~(checks : Checks.t) ~passes ~instance ~repairs ~downclocked rec_ =
  let per_pass x = x /. float_of_int (max 1 passes) in
  let stage s = Hashtbl.find rec_ s in
  let stage_metrics =
    List.concat_map
      (fun s ->
        let samples = stage s in
        let n = Samples.count samples in
        (* A stage never called has no p50; its total per pass is 0. *)
        (if n = 0 then [] else [ metric ~samples:n (s ^ "_ms") "ms" (Samples.median samples) ])
        @ [ metric ~samples:passes (s ^ "_pass_ms") "ms" (per_pass (Samples.total samples)) ])
      Pipeline.stages
  in
  let evaluations = List.fold_left (fun a (r : Noc_eas.Repair.stats) -> a + r.evaluations) 0 repairs in
  let accepted =
    List.fold_left
      (fun a (r : Noc_eas.Repair.stats) -> a + r.accepted_swaps + r.accepted_migrations)
      0 repairs
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let repair_ms = Samples.total (stage "repair.run") in
  let staged_ms = List.fold_left (fun a s -> a +. Samples.total (stage s)) 0. Pipeline.stages in
  let instance_ms = Samples.total instance in
  let coverage = if instance_ms = 0. then 0. else staged_ms /. instance_ms *. 100. in
  if instance_ms > 0. && (coverage < 90. || coverage > 100.5) then
    Checks.fail checks (Printf.sprintf "stage times cover %.1f%% of instance time" coverage);
  stage_metrics
  @ [
      metric ~samples:passes "repair.calls" "count" (per_pass (float_of_int (List.length repairs)));
      metric ~samples:passes "repair.evaluations" "count" (per_pass (float_of_int evaluations));
    ]
  (* Per-evaluation figures exist only when repair evaluated a move. *)
  @ (if evaluations = 0 then []
     else
       [
         metric ~samples:evaluations "repair.ms_per_evaluation" "ms"
           (repair_ms /. float_of_int evaluations);
         metric ~samples:evaluations "repair.accept_ratio" "ratio" (ratio accepted evaluations);
       ])
  @ [
      metric ~samples:passes "reclaim.downclocked" "count" (per_pass (float_of_int downclocked));
      metric ~samples:(Samples.count instance) "trace.stage_coverage_pct" "%" coverage;
    ]

(* The traced report: per layer, call count, sample count, self time
   per pass, its share of the instance time and p50 per call. Stages
   are leaves, so their self time is their total; the instance row's
   self time is what no stage covers. *)
let print_table ~passes ~instance rec_ =
  Printf.printf "  %-22s %7s %8s %13s %7s %11s\n" "layer" "calls" "samples" "self_ms/pass" "share"
    "p50_ms";
  let per_pass x = x /. float_of_int (max 1 passes) in
  let total = Samples.total instance in
  let row name n self p50 =
    Printf.printf "  %-22s %7d %8d %13.3f %6.1f%% %11.4f\n" name n n (per_pass self)
      (if total = 0. then 0. else self /. total *. 100.)
      p50
  in
  let staged = ref 0. in
  List.iter
    (fun s ->
      let x = Hashtbl.find rec_ s in
      staged := !staged +. Samples.total x;
      row s (Samples.count x) (Samples.total x) (Samples.median x))
    Pipeline.stages;
  row "instance (self)" (Samples.count instance) (total -. !staged) (Samples.median instance)
