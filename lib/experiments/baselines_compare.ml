type entry = { scheduler : string; energy : float; makespan : float; misses : int }
type row = { name : string; entries : entry list }

let entry_of name (m : Noc_sched.Metrics.t) =
  {
    scheduler = name;
    energy = m.total_energy;
    makespan = m.makespan;
    misses = Noc_sched.Metrics.miss_count m;
  }

let evaluate name platform ctg =
  let requested name algo =
    entry_of name (Pipeline.evaluate platform ctg (Pipeline.request algo)).metrics
  in
  (* No request names DLS or the energy-greedy mapper, so their
     schedules are certified on their own. *)
  let certified name schedule =
    Pipeline.gate (Pipeline.certify platform ctg schedule);
    entry_of name (Noc_sched.Metrics.compute platform ctg schedule)
  in
  let entries =
    [
      requested "EAS" Runner.Eas;
      requested "EDF" Runner.Edf;
      certified "DLS" (Noc_baselines.Dls.schedule platform ctg);
      certified "Energy-greedy" (Noc_baselines.Energy_greedy.schedule platform ctg);
    ]
  in
  { name; entries }

let run ?jobs ?(seeds = [ 0; 1; 2 ]) () =
  let clip = Noc_msb.Profile.Foreman in
  (* Three shared platforms cross the fan-out below (av_2x2 twice). *)
  List.iter Noc_noc.Platform.warm_routes
    [ Noc_msb.Platforms.av_2x2; Noc_msb.Platforms.av_3x3; Noc_tgff.Category.platform ];
  let msb =
    [
      ( "encoder/foreman",
        Noc_msb.Platforms.av_2x2,
        Noc_msb.Graphs.encoder ~platform:Noc_msb.Platforms.av_2x2 ~clip () );
      ( "decoder/foreman",
        Noc_msb.Platforms.av_2x2,
        Noc_msb.Graphs.decoder ~platform:Noc_msb.Platforms.av_2x2 ~clip () );
      ( "integrated/foreman",
        Noc_msb.Platforms.av_3x3,
        Noc_msb.Graphs.integrated ~platform:Noc_msb.Platforms.av_3x3 ~clip () );
    ]
  in
  let random =
    List.map
      (fun seed ->
        let platform = Noc_tgff.Category.platform in
        let params = { Noc_tgff.Params.default with n_tasks = 120 } in
        ( Printf.sprintf "tgff-120/seed %d" seed,
          platform,
          Noc_tgff.Generate.generate ~params ~platform ~seed ))
      seeds
  in
  Noc_util.Pool.map_list ?jobs
    (fun (name, platform, ctg) ->
      Runner.traced ~label:("baselines_compare/" ^ name) (fun () ->
          evaluate name platform ctg))
    (msb @ random)

let render rows =
  let schedulers =
    match rows with
    | [] -> []
    | r :: _ -> List.map (fun e -> e.scheduler) r.entries
  in
  let header =
    "benchmark"
    :: List.concat_map (fun s -> [ s ^ " nJ"; "mk"; "miss" ]) schedulers
  in
  let cells =
    List.map
      (fun r ->
        r.name
        :: List.concat_map
             (fun e ->
               [
                 Noc_util.Text_table.float_cell ~decimals:0 e.energy;
                 Noc_util.Text_table.float_cell ~decimals:0 e.makespan;
                 string_of_int e.misses;
               ])
             r.entries)
      rows
  in
  Printf.sprintf
    "Extended baselines: EAS between the performance school (EDF, DLS of\n\
     Sih & Lee — the paper's ref [10]) and a deadline-oblivious\n\
     energy-greedy lower bound.\n%s\n"
    (Noc_util.Text_table.render ~header cells)
