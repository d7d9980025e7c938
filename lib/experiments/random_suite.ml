type row = {
  index : int;
  eas_base : Pipeline.t;
  eas : Pipeline.t;
  edf : Pipeline.t;
}

type result = {
  kind : Noc_tgff.Category.kind;
  rows : row list;
  average_edf_excess : float;
}

let run ?jobs ?(indices = List.init 10 Fun.id) ?scale kind =
  let platform = Noc_tgff.Category.platform in
  (* The suite shares one platform across the pool: fill its route memo
     before fanning out so the worker domains only read it. *)
  Noc_noc.Platform.warm_routes platform;
  let params =
    match scale with
    | None -> Noc_tgff.Category.params kind
    | Some scale -> Noc_tgff.Category.scaled_params kind ~scale
  in
  let rows =
    Noc_util.Pool.map_list ?jobs
      (fun index ->
        let seed = Noc_tgff.Category.seed_of kind index in
        Runner.traced ~label:(Printf.sprintf "random_suite/%s/seed=%d" (match kind with
          | Noc_tgff.Category.Category_i -> "cat_i"
          | Noc_tgff.Category.Category_ii -> "cat_ii"
          | Noc_tgff.Category.Category_iii -> "cat_iii") seed)
        @@ fun () ->
        let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
        let evaluate algo = Pipeline.evaluate platform ctg (Pipeline.request algo) in
        {
          index;
          eas_base = evaluate Runner.Eas_base;
          eas = evaluate Runner.Eas;
          edf = evaluate Runner.Edf;
        })
      indices
  in
  let average_edf_excess =
    let excesses =
      List.map
        (fun r ->
          (r.edf.Pipeline.metrics.Noc_sched.Metrics.total_energy
          /. r.eas.Pipeline.metrics.Noc_sched.Metrics.total_energy)
          -. 1.)
        rows
    in
    List.fold_left ( +. ) 0. excesses /. float_of_int (List.length excesses)
  in
  { kind; rows; average_edf_excess }

let kind_name = function
  | Noc_tgff.Category.Category_i -> "category I"
  | Noc_tgff.Category.Category_ii -> "category II"
  | Noc_tgff.Category.Category_iii -> "category III"

let render result =
  let cell = Noc_util.Text_table.float_cell ~decimals:0 in
  let header =
    [
      "benchmark"; "EAS-base (nJ)"; "EAS (nJ)"; "EDF (nJ)"; "base miss"; "EAS miss";
      "EDF miss"; "base t(s)"; "EAS t(s)";
    ]
  in
  let row_of r =
    let energy (e : Pipeline.t) = cell e.metrics.Noc_sched.Metrics.total_energy in
    let miss (e : Pipeline.t) =
      string_of_int (Noc_sched.Metrics.miss_count e.metrics)
    in
    [
      string_of_int r.index;
      energy r.eas_base;
      energy r.eas;
      energy r.edf;
      miss r.eas_base;
      miss r.eas;
      miss r.edf;
      Printf.sprintf "%.2f" r.eas_base.runtime_seconds;
      Printf.sprintf "%.2f" r.eas.runtime_seconds;
    ]
  in
  let table = Noc_util.Text_table.render ~header (List.map row_of result.rows) in
  Printf.sprintf "%s\n%s\nEDF consumes on average %.1f%% more energy than EAS.\n"
    (kind_name result.kind) table
    (100. *. result.average_edf_excess)
