type point = { ratio : float; eas : Pipeline.t; edf : Pipeline.t }

let default_ratios = List.init 9 (fun i -> 1.0 +. (0.1 *. float_of_int i))

let run ?(ratios = default_ratios) () =
  let clip = Noc_msb.Profile.Foreman in
  let platform = Noc_msb.Platforms.av_3x3 in
  List.map
    (fun ratio ->
      Runner.traced ~label:(Printf.sprintf "tradeoff/ratio=%.1f" ratio) @@ fun () ->
      let ctg = Noc_msb.Graphs.integrated ~ratio ~platform ~clip () in
      let evaluate algo = Pipeline.evaluate platform ctg (Pipeline.request algo) in
      { ratio; eas = evaluate Runner.Eas; edf = evaluate Runner.Edf })
    ratios

let render points =
  let header =
    [ "performance ratio"; "EAS (nJ)"; "EDF (nJ)"; "EAS miss"; "EDF miss" ]
  in
  let rows =
    List.map
      (fun p ->
        [
          Printf.sprintf "%.1f" p.ratio;
          Noc_util.Text_table.float_cell ~decimals:0
            p.eas.Pipeline.metrics.Noc_sched.Metrics.total_energy;
          Noc_util.Text_table.float_cell ~decimals:0
            p.edf.Pipeline.metrics.Noc_sched.Metrics.total_energy;
          string_of_int (Noc_sched.Metrics.miss_count p.eas.Pipeline.metrics);
          string_of_int (Noc_sched.Metrics.miss_count p.edf.Pipeline.metrics);
        ])
      points
  in
  Printf.sprintf
    "Performance and energy trade-off (integrated MSB, foreman):\n%s\n"
    (Noc_util.Text_table.render ~header rows)
