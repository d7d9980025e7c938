type row = {
  seed : int;
  per_scheme : (Noc_eas.Budget.weighting * Noc_sched.Metrics.t) list;
}

let schemes =
  [ Noc_eas.Budget.Variance_product; Noc_eas.Budget.Mean_time; Noc_eas.Budget.Uniform ]

let scheme_name = function
  | Noc_eas.Budget.Variance_product -> "variance-product (paper)"
  | Noc_eas.Budget.Mean_time -> "mean-time"
  | Noc_eas.Budget.Uniform -> "uniform"

(* No request names a weighting, so each schedule is certified on its
   own before its metrics make a row. *)
let evaluate_scheme platform ctg weighting =
  let schedule = (Noc_eas.Eas.schedule ~repair:false ~weighting platform ctg).schedule in
  Pipeline.gate (Pipeline.certify platform ctg schedule);
  Noc_sched.Metrics.compute platform ctg schedule

let run ?jobs ?(seeds = List.init 6 Fun.id) ?(n_tasks = 150) () =
  let platform = Noc_tgff.Category.platform in
  Noc_noc.Platform.warm_routes platform;
  let params =
    { Noc_tgff.Params.default with n_tasks; deadline_tightness = 2.3 }
  in
  Noc_util.Pool.map_list ?jobs
    (fun seed ->
      Runner.traced ~label:(Printf.sprintf "weight_ablation/seed=%d" seed)
      @@ fun () ->
      let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
      {
        seed;
        per_scheme =
          List.map (fun w -> (w, evaluate_scheme platform ctg w)) schemes;
      })
    seeds

let render rows =
  let header =
    "seed"
    :: List.concat_map
         (fun w -> [ scheme_name w ^ " nJ"; "miss" ])
         schemes
  in
  let table_rows =
    List.map
      (fun r ->
        string_of_int r.seed
        :: List.concat_map
             (fun (_, (m : Noc_sched.Metrics.t)) ->
               [
                 Noc_util.Text_table.float_cell ~decimals:0 m.total_energy;
                 string_of_int (Noc_sched.Metrics.miss_count m);
               ])
             r.per_scheme)
      rows
  in
  let totals =
    List.map
      (fun scheme ->
        let misses =
          List.fold_left
            (fun acc r ->
              acc + Noc_sched.Metrics.miss_count (List.assoc scheme r.per_scheme))
            0 rows
        in
        Printf.sprintf "%s: %d total misses" (scheme_name scheme) misses)
      schemes
  in
  Printf.sprintf
    "Slack-weighting ablation (EAS-base, category-II tightness): the paper's\n\
     variance-product weights against simpler schemes. Under this workload\n\
     generator the variance product concentrates slack on a few\n\
     jitter-heavy tasks and leaves the rest with razor-thin budgets, so the\n\
     simpler schemes miss fewer deadlines; with loose deadlines all three\n\
     schemes give the same energy. See EXPERIMENTS.md.\n%s\n%s\n"
    (Noc_util.Text_table.render ~header table_rows)
    (String.concat "; " totals)
