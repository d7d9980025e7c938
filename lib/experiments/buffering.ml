type row = {
  seed : int;
  comm_energy : float;
  aware_buffer_energy : float;
  fixed_buffer_energy : float;
}

let run ?(seeds = [ 0; 1; 2; 7; 8 ]) () =
  let platform = Noc_tgff.Category.platform in
  let params =
    { Noc_tgff.Params.default with n_tasks = 120; deadline_tightness = 1.4 }
  in
  List.map
    (fun seed ->
      Runner.traced ~label:(Printf.sprintf "buffering/seed=%d" seed) @@ fun () ->
      let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
      let aware = Pipeline.evaluate platform ctg (Pipeline.request Runner.Eas) in
      (* As in {!Ablation}, the fixed-delay arm is the wrong model whose
         link overlaps are the point: replayed, never certified. *)
      let fixed =
        let kernel =
          Noc_eas.Kernel.build ~comm_model:Noc_sched.Comm_sched.Fixed_delay platform ctg
        in
        (Noc_eas.Eas.schedule ~kernel platform ctg).schedule
      in
      let aware_replay = Noc_sim.Executor.run platform ctg aware.schedule in
      let fixed_replay = Noc_sim.Executor.run platform ctg fixed in
      {
        seed;
        comm_energy = aware.metrics.communication_energy;
        aware_buffer_energy = Noc_sim.Buffer_energy.estimate ctg aware_replay;
        fixed_buffer_energy = Noc_sim.Buffer_energy.estimate ctg fixed_replay;
      })
    seeds

let render rows =
  let header =
    [ "seed"; "Eq.1 comm (nJ)"; "EAS buffer (nJ)"; "fixed-delay buffer (nJ)" ]
  in
  let cells =
    List.map
      (fun r ->
        [
          string_of_int r.seed;
          Noc_util.Text_table.float_cell ~decimals:1 r.comm_energy;
          Noc_util.Text_table.float_cell ~decimals:1 r.aware_buffer_energy;
          Noc_util.Text_table.float_cell ~decimals:1 r.fixed_buffer_energy;
        ])
      rows
  in
  Printf.sprintf
    "Eq. (1) validation: measured buffering energy (E_Bbit term) from the\n\
     wormhole replay. Contention-aware schedules never buffer, so the\n\
     paper's approximation is exact for EAS; fixed-delay schedules would\n\
     hide a real buffering cost.\n%s\n"
    (Noc_util.Text_table.render ~header cells)
