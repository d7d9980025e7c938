type result = {
  clip : Noc_msb.Profile.clip;
  eas : Noc_sched.Metrics.t;
  edf : Noc_sched.Metrics.t;
}

let run () =
  let clip = Noc_msb.Profile.Foreman in
  Runner.traced ~label:("energy_split/" ^ Noc_msb.Profile.clip_name clip)
  @@ fun () ->
  let platform = Noc_msb.Platforms.av_3x3 in
  let ctg = Noc_msb.Graphs.integrated ~platform ~clip () in
  let metrics algo = (Pipeline.evaluate platform ctg (Pipeline.request algo)).metrics in
  { clip; eas = metrics Runner.Eas; edf = metrics Runner.Edf }

let render r =
  let header = [ "metric"; "EDF"; "EAS" ] in
  let cell = Noc_util.Text_table.float_cell ~decimals:1 in
  let rows =
    [
      [ "computation energy (nJ)"; cell r.edf.computation_energy; cell r.eas.computation_energy ];
      [ "communication energy (nJ)"; cell r.edf.communication_energy; cell r.eas.communication_energy ];
      [ "total energy (nJ)"; cell r.edf.total_energy; cell r.eas.total_energy ];
      [ "average hops per packet"; Printf.sprintf "%.2f" r.edf.average_hops;
        Printf.sprintf "%.2f" r.eas.average_hops ];
    ]
  in
  Printf.sprintf
    "Energy breakdown (integrated MSB, %s): EAS reduces computation and\ncommunication energy together.\n%s\n"
    (Noc_msb.Profile.clip_name r.clip)
    (Noc_util.Text_table.render ~header rows)
