type which = Encoder | Decoder | Integrated

let which_name = function
  | Encoder -> "A/V encoder (24 tasks, 2x2)"
  | Decoder -> "A/V decoder (16 tasks, 2x2)"
  | Integrated -> "A/V encoder/decoder (40 tasks, 3x3)"

let platform_of = function
  | Encoder | Decoder -> Noc_msb.Platforms.av_2x2
  | Integrated -> Noc_msb.Platforms.av_3x3

let graph_of which ~clip =
  let platform = platform_of which in
  match which with
  | Encoder -> Noc_msb.Graphs.encoder ~platform ~clip ()
  | Decoder -> Noc_msb.Graphs.decoder ~platform ~clip ()
  | Integrated -> Noc_msb.Graphs.integrated ~platform ~clip ()

type row = {
  clip : Noc_msb.Profile.clip;
  eas : Pipeline.t;
  edf : Pipeline.t;
}

type result = { which : which; rows : row list }

let run which =
  let platform = platform_of which in
  let rows =
    List.map
      (fun clip ->
        Runner.traced
          ~label:
            (Printf.sprintf "msb_tables/%s/%s" (which_name which)
               (Noc_msb.Profile.clip_name clip))
        @@ fun () ->
        let ctg = graph_of which ~clip in
        let evaluate algo = Pipeline.evaluate platform ctg (Pipeline.request algo) in
        { clip; eas = evaluate Runner.Eas; edf = evaluate Runner.Edf })
      Noc_msb.Profile.all_clips
  in
  { which; rows }

let render result =
  let header = "MSB Task Set" :: List.map Noc_msb.Profile.clip_name
                  (List.map (fun r -> r.clip) result.rows)
  in
  let energy_cells select =
    List.map
      (fun r ->
        Noc_util.Text_table.float_cell ~decimals:0
          (select r).Pipeline.metrics.Noc_sched.Metrics.total_energy)
      result.rows
  in
  let savings_cells =
    List.map
      (fun r ->
        Noc_util.Text_table.percent_cell
          (Runner.savings
             ~baseline:r.edf.Pipeline.metrics.Noc_sched.Metrics.total_energy
             r.eas.Pipeline.metrics.Noc_sched.Metrics.total_energy))
      result.rows
  in
  let miss_cells =
    List.map
      (fun r -> string_of_int (Noc_sched.Metrics.miss_count r.eas.Pipeline.metrics))
      result.rows
  in
  let table =
    Noc_util.Text_table.render ~header
      [
        "EAS Energy (nJ)" :: energy_cells (fun r -> r.eas);
        "EDF Energy (nJ)" :: energy_cells (fun r -> r.edf);
        "Energy Savings (%)" :: savings_cells;
        "EAS deadline misses" :: miss_cells;
      ]
  in
  Printf.sprintf "%s\n%s\n" (which_name result.which) table
