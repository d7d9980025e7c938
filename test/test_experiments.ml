(* Tests for the experiment harness (scaled-down runs of every paper
   artifact, asserting the qualitative shapes the paper reports). *)

module Runner = Noc_experiments.Runner
module Pipeline = Noc_experiments.Pipeline
module Schedule = Noc_sched.Schedule
module Random_suite = Noc_experiments.Random_suite
module Msb_tables = Noc_experiments.Msb_tables
module Tradeoff = Noc_experiments.Tradeoff
module Energy_split = Noc_experiments.Energy_split
module Ablation = Noc_experiments.Ablation

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_runner_names () =
  Alcotest.(check (list string)) "algo names" [ "EAS-base"; "EAS"; "EDF" ]
    (List.map Runner.algo_name [ Runner.Eas_base; Runner.Eas; Runner.Edf ])

let test_runner_savings () =
  Alcotest.(check (float 1e-9)) "savings" 0.25 (Runner.savings ~baseline:100. 75.)

let test_pipeline_evaluate () =
  let platform = Noc_tgff.Category.platform in
  let params = { Noc_tgff.Params.default with n_tasks = 30 } in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:0 in
  List.iter
    (fun algo ->
      let e = Pipeline.evaluate platform ctg (Pipeline.request algo) in
      Alcotest.(check (option string))
        (Runner.algo_name algo ^ " certified")
        None (Pipeline.refusal e.diagnostics);
      Alcotest.(check bool) "positive energy" true
        (e.metrics.Noc_sched.Metrics.total_energy > 0.))
    [ Runner.Eas_base; Runner.Eas; Runner.Edf ]

(* The gate every campaign row passes: any structural error raises,
   naming its rule; deadline misses alone do not. *)
let test_gate () =
  let platform = Noc_tgff.Category.platform in
  let params = { Noc_tgff.Params.default with n_tasks = 30 } in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:0 in
  let schedule = (Pipeline.evaluate platform ctg (Pipeline.request Runner.Eas)).schedule in
  let placements = Schedule.placements schedule in
  (* A sink task [a] and the next task [b] on its PE: moving [a]'s window
     onto [b]'s start overlaps the two and breaks no data dependency. *)
  let is_sink (p : Schedule.placement) = Noc_ctg.Ctg.succs ctg p.task = [] in
  let a, b =
    let pairs =
      List.concat_map
        (fun pe ->
          let rec adjacent = function
            | a :: (b :: _ as rest) -> (a, b) :: adjacent rest
            | _ -> []
          in
          adjacent
            (List.sort
               (fun (p : Schedule.placement) q -> Float.compare p.start q.start)
               (Schedule.tasks_on_pe schedule ~pe)))
        (List.init (Noc_noc.Platform.n_pes platform) Fun.id)
    in
    match List.find_opt (fun (a, _) -> is_sink a) pairs with
    | Some pair -> pair
    | None -> Alcotest.fail "no sink task followed by another on its PE"
  in
  let shifted = Array.copy placements in
  shifted.(a.task) <-
    { a with start = b.Schedule.start; finish = b.Schedule.start +. (a.finish -. a.start) };
  let mutated = Schedule.make ~placements:shifted ~transactions:(Schedule.transactions schedule) in
  (match Pipeline.gate (Pipeline.certify platform ctg mutated) with
  | () -> Alcotest.fail "the gate passed a PE overlap"
  | exception Pipeline.Uncertified d ->
    Alcotest.(check string) "names the overlap" "sched/pe-overlap" d.rule);
  (* 40 tasks at tightness 0.5: deadlines no schedule meets, nothing else
     wrong. The schedule fails certification but passes the gate. *)
  let params =
    { Noc_tgff.Params.default with n_tasks = 40; deadline_tightness = 0.5 }
  in
  let platform = Pipeline.mesh_platform (4, 4) in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:1 in
  let t = Pipeline.evaluate platform ctg (Pipeline.request Runner.Eas) in
  Alcotest.(check bool) "misses deadlines" true (Noc_sched.Metrics.miss_count t.metrics > 0);
  Alcotest.(check bool) "refused by the certifier" true (Pipeline.refusal t.diagnostics <> None);
  Alcotest.(check (list string)) "deadline misses only" [ "sched/deadline" ]
    (List.sort_uniq compare
       (List.filter_map
          (fun (d : Noc_analysis.Diagnostic.t) ->
            if d.severity = Noc_analysis.Diagnostic.Error then Some d.rule else None)
          t.diagnostics))

let test_fig5_shape_scaled () =
  (* A scaled category-I run must preserve the paper's headline: EAS
     beats EDF on every benchmark and EAS misses nothing. *)
  let result =
    Random_suite.run ~indices:[ 0; 1; 2 ] ~scale:0.12 Noc_tgff.Category.Category_i
  in
  Alcotest.(check int) "three rows" 3 (List.length result.Random_suite.rows);
  List.iter
    (fun (r : Random_suite.row) ->
      let energy (e : Pipeline.t) = e.metrics.Noc_sched.Metrics.total_energy in
      Alcotest.(check bool) "EAS cheaper than EDF" true (energy r.eas < energy r.edf);
      Alcotest.(check int) "EAS meets deadlines" 0
        (Noc_sched.Metrics.miss_count r.eas.metrics))
    result.Random_suite.rows;
  Alcotest.(check bool) "positive average excess" true
    (result.Random_suite.average_edf_excess > 0.);
  Alcotest.(check bool) "render works" true
    (contains_substring (Random_suite.render result) "EDF consumes")

let test_msb_table_shape () =
  let result = Msb_tables.run Msb_tables.Encoder in
  Alcotest.(check int) "three clips" 3 (List.length result.Msb_tables.rows);
  List.iter
    (fun (r : Msb_tables.row) ->
      let energy (e : Pipeline.t) = e.metrics.Noc_sched.Metrics.total_energy in
      Alcotest.(check bool) "positive savings" true (energy r.eas < energy r.edf);
      Alcotest.(check int) "EAS meets the frame rate" 0
        (Noc_sched.Metrics.miss_count r.eas.metrics))
    result.Msb_tables.rows;
  let rendered = Msb_tables.render result in
  Alcotest.(check bool) "renders savings row" true
    (contains_substring rendered "Energy Savings")

let test_tradeoff_shape () =
  (* Fig. 7's shape: EAS energy is (weakly) higher at ratio 1.8 than at
     1.0 and stays below EDF throughout. *)
  let points = Tradeoff.run ~ratios:[ 1.0; 1.4; 1.8 ] () in
  let energy (e : Pipeline.t) = e.metrics.Noc_sched.Metrics.total_energy in
  (match points with
  | [ p10; _; p18 ] ->
    Alcotest.(check bool) "tighter costs energy" true (energy p18.Tradeoff.eas > energy p10.Tradeoff.eas);
    List.iter
      (fun (p : Tradeoff.point) ->
        Alcotest.(check bool) "EAS below EDF" true
          (energy p.Tradeoff.eas < energy p.Tradeoff.edf))
      points
  | _ -> Alcotest.fail "expected three points");
  Alcotest.(check bool) "render works" true
    (contains_substring (Tradeoff.render points) "performance ratio")

let test_energy_split_shape () =
  (* The paper's in-text claim: both energy components drop, and the
     average hop count drops. *)
  let r = Energy_split.run () in
  Alcotest.(check bool) "computation drops" true
    (r.Energy_split.eas.Noc_sched.Metrics.computation_energy
    < r.Energy_split.edf.Noc_sched.Metrics.computation_energy);
  Alcotest.(check bool) "communication drops" true
    (r.Energy_split.eas.Noc_sched.Metrics.communication_energy
    < r.Energy_split.edf.Noc_sched.Metrics.communication_energy);
  Alcotest.(check bool) "hops drop" true
    (r.Energy_split.eas.Noc_sched.Metrics.average_hops
    < r.Energy_split.edf.Noc_sched.Metrics.average_hops)

let test_ablation_shape () =
  let rows = Ablation.run ~seeds:[ 0; 2 ] () in
  List.iter
    (fun (r : Ablation.row) ->
      Alcotest.(check int) "aware replays without misses" 0 r.Ablation.aware_replay_misses;
      Alcotest.(check (float 1e-6)) "aware replays exactly" 0. r.Ablation.aware_max_deviation;
      Alcotest.(check bool) "fixed-delay blocks on links" true
        (r.Ablation.fixed_link_waiting > 0.))
    rows;
  Alcotest.(check bool) "some fixed replay misses deadlines" true
    (List.exists (fun (r : Ablation.row) -> r.Ablation.fixed_replay_misses > 0) rows);
  Alcotest.(check bool) "render works" true
    (contains_substring (Ablation.render rows) "Contention ablation")

let test_fault_campaign_json_schema () =
  (* A full-size campaign reproduces the committed BENCH_faults.json by
     value: the canonical printer sorts keys, so equal documents print
     identically. On a mismatch the fresh document is printed; it is the
     file to commit when the change is intended. *)
  let committed =
    match
      Noc_obs.Json.parse
        (In_channel.with_open_text "../BENCH_faults.json" In_channel.input_all)
    with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "BENCH_faults.json does not parse: %s" msg
  in
  let fresh =
    Noc_obs.Json.to_string
      (Noc_experiments.Fault_campaign.to_json (Noc_experiments.Fault_campaign.run ()))
  in
  if fresh <> Noc_obs.Json.to_string committed then
    Alcotest.failf "fault campaign differs from BENCH_faults.json; fresh report:\n%s"
      fresh;
  Alcotest.(check (option string)) "schema tag"
    (Some "nocsched/bench-faults/v2")
    (match Noc_obs.Json.member "schema" committed with
    | Some (Noc_obs.Json.String s) -> Some s
    | _ -> None)

let suite =
  [
    Alcotest.test_case "runner names" `Quick test_runner_names;
    Alcotest.test_case "runner savings" `Quick test_runner_savings;
    Alcotest.test_case "pipeline evaluate" `Quick test_pipeline_evaluate;
    Alcotest.test_case "gate rejects overlaps, passes misses" `Quick test_gate;
    Alcotest.test_case "fig5 shape (scaled)" `Slow test_fig5_shape_scaled;
    Alcotest.test_case "MSB table shape" `Slow test_msb_table_shape;
    Alcotest.test_case "tradeoff shape" `Slow test_tradeoff_shape;
    Alcotest.test_case "energy split shape" `Slow test_energy_split_shape;
    Alcotest.test_case "ablation shape" `Slow test_ablation_shape;
    Alcotest.test_case "fault campaign JSON matches BENCH_faults.json" `Quick
      test_fault_campaign_json_schema;
  ]
