(* Tests for the ablation knobs (budget weighting, repair move sets) and
   the extension experiments built on them. *)

module Budget = Noc_eas.Budget
module Repair = Noc_eas.Repair
module Eas = Noc_eas.Eas
module Metrics = Noc_sched.Metrics

let platform = Noc_tgff.Category.platform

let random_ctg ?(n_tasks = 60) ?(tightness = 1.8) seed =
  let params =
    { Noc_tgff.Params.default with n_tasks; deadline_tightness = tightness }
  in
  Noc_tgff.Generate.generate ~params ~platform ~seed

let test_uniform_weights () =
  let ctg = random_ctg 0 in
  let budget = Budget.compute ~weighting:Budget.Uniform ctg in
  Array.iter
    (fun w -> Alcotest.(check (float 0.)) "all ones" 1. w)
    budget.Budget.weights

let test_mean_time_weights () =
  let ctg = random_ctg 0 in
  let budget = Budget.compute ~weighting:Budget.Mean_time ctg in
  Alcotest.(check (array (float 1e-9))) "weights are mean times"
    budget.Budget.mean_times budget.Budget.weights

let test_default_weighting_is_variance_product () =
  let ctg = random_ctg 0 in
  let a = Budget.compute ctg and b = Budget.compute ~weighting:Budget.Variance_product ctg in
  Alcotest.(check (array (float 0.))) "same budgets" a.Budget.budgeted_deadlines
    b.Budget.budgeted_deadlines

let test_weighting_changes_budgets () =
  let ctg = random_ctg 0 in
  let a = Budget.compute ~weighting:Budget.Variance_product ctg in
  let b = Budget.compute ~weighting:Budget.Uniform ctg in
  Alcotest.(check bool) "different budgets" true
    (a.Budget.budgeted_deadlines <> b.Budget.budgeted_deadlines)

let test_weighting_schedules_all_feasible () =
  let ctg = random_ctg 1 in
  List.iter
    (fun weighting ->
      let s = (Eas.schedule ~weighting platform ctg).Eas.schedule in
      let hard =
        Noc_sched.Validate.check platform ctg s
        |> List.filter (function
             | Noc_sched.Validate.Deadline_miss _ -> false
             | _ -> true)
      in
      Alcotest.(check int) "feasible under every weighting" 0 (List.length hard))
    [ Budget.Variance_product; Budget.Mean_time; Budget.Uniform ]

(* Repair move sets. Find a missing benchmark, repair under each mode. *)
let missing_case () =
  let rec search seed =
    if seed > 40 then Alcotest.fail "no missing seed found"
    else begin
      let ctg = random_ctg ~n_tasks:60 ~tightness:1.3 seed in
      let base = (Eas.schedule ~repair:false platform ctg).Eas.schedule in
      let misses = Metrics.miss_count (Metrics.compute platform ctg base) in
      if misses > 0 then (ctg, base, misses) else search (seed + 1)
    end
  in
  search 0

let test_lts_only_preserves_energy () =
  let ctg, base, _ = missing_case () in
  let repaired, stats = Repair.run ~kernel:(Noc_eas.Kernel.build platform ctg) ~moves:Repair.Lts_only platform ctg base in
  let e s = (Metrics.compute platform ctg s).Metrics.total_energy in
  (* The paper: LTS only reorders tasks on one PE, so Eq. 3 energy is
     untouched no matter how many swaps were accepted. *)
  Alcotest.(check (float 1e-6)) "energy unchanged" (e base) (e repaired);
  Alcotest.(check int) "no migrations in LTS mode" 0 stats.Repair.accepted_migrations

let test_gtm_only_never_swaps () =
  let ctg, base, _ = missing_case () in
  let _, stats = Repair.run ~kernel:(Noc_eas.Kernel.build platform ctg) ~moves:Repair.Gtm_only platform ctg base in
  Alcotest.(check int) "no swaps in GTM mode" 0 stats.Repair.accepted_swaps

let test_both_at_least_as_good () =
  let ctg, base, _ = missing_case () in
  let misses moves =
    let repaired, _ = Repair.run ~kernel:(Noc_eas.Kernel.build platform ctg) ~moves platform ctg base in
    Metrics.miss_count (Metrics.compute platform ctg repaired)
  in
  let both = misses Repair.Both in
  Alcotest.(check bool) "combined repair at least as effective" true
    (both <= misses Repair.Lts_only && both <= misses Repair.Gtm_only)

(* Extension experiments. *)

let test_topology_compare_shape () =
  let result = Noc_experiments.Topology_compare.run ~n_tasks:50 () in
  Alcotest.(check int) "three fabrics" 3
    (List.length result.Noc_experiments.Topology_compare.rows);
  (* Computation energy is fabric-independent up to PE jitter: the same
     PE array means identical cost tables, so totals differ only through
     assignment choices; communication energy must differ. *)
  let comm (r : Noc_experiments.Topology_compare.row) =
    r.Noc_experiments.Topology_compare.eas.Noc_experiments.Pipeline.metrics
      .Noc_sched.Metrics.communication_energy
  in
  (match result.Noc_experiments.Topology_compare.rows with
  | [ mesh; torus; honeycomb ] ->
    Alcotest.(check bool) "torus comm <= honeycomb comm" true
      (comm torus <= comm honeycomb);
    Alcotest.(check bool) "mesh comm <= honeycomb comm" true
      (comm mesh <= comm honeycomb)
  | _ -> Alcotest.fail "expected three rows");
  Alcotest.(check bool) "render works" true
    (String.length
       (Noc_experiments.Topology_compare.render result)
    > 0)

let test_weight_ablation_shape () =
  let rows = Noc_experiments.Weight_ablation.run ~seeds:[ 0; 1 ] ~n_tasks:60 () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Noc_experiments.Weight_ablation.row) ->
      Alcotest.(check int) "three schemes" 3
        (List.length r.Noc_experiments.Weight_ablation.per_scheme))
    rows;
  Alcotest.(check bool) "render works" true
    (String.length (Noc_experiments.Weight_ablation.render rows) > 0)

let test_repair_ablation_shape () =
  let rows = Noc_experiments.Repair_ablation.run ~indices:[ 0; 1 ] ~scale:0.25 () in
  List.iter
    (fun (r : Noc_experiments.Repair_ablation.row) ->
      Alcotest.(check bool) "only missing benchmarks included" true
        (r.Noc_experiments.Repair_ablation.base_misses > 0);
      List.iter
        (fun (a : Noc_experiments.Repair_ablation.attempt) ->
          match a.Noc_experiments.Repair_ablation.moves with
          | Noc_eas.Repair.Lts_only ->
            Alcotest.(check (float 1e-9)) "LTS is free" 0.
              a.Noc_experiments.Repair_ablation.energy_increase
          | Noc_eas.Repair.Gtm_only | Noc_eas.Repair.Both -> ())
        r.Noc_experiments.Repair_ablation.attempts)
    rows;
  Alcotest.(check bool) "render works" true
    (String.length (Noc_experiments.Repair_ablation.render rows) > 0)

let suite =
  [
    Alcotest.test_case "uniform weights" `Quick test_uniform_weights;
    Alcotest.test_case "mean-time weights" `Quick test_mean_time_weights;
    Alcotest.test_case "default weighting" `Quick test_default_weighting_is_variance_product;
    Alcotest.test_case "weighting changes budgets" `Quick test_weighting_changes_budgets;
    Alcotest.test_case "all weightings feasible" `Slow test_weighting_schedules_all_feasible;
    Alcotest.test_case "LTS-only preserves energy" `Slow test_lts_only_preserves_energy;
    Alcotest.test_case "GTM-only never swaps" `Slow test_gtm_only_never_swaps;
    Alcotest.test_case "combined repair strongest" `Slow test_both_at_least_as_good;
    Alcotest.test_case "topology comparison shape" `Slow test_topology_compare_shape;
    Alcotest.test_case "weight ablation shape" `Slow test_weight_ablation_shape;
    Alcotest.test_case "repair ablation shape" `Slow test_repair_ablation_shape;
  ]
