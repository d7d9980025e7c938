type t = {
  total_energy : float;
  computation_energy : float;
  communication_energy : float;
  makespan : float;
  deadline_misses : (int * float) list;
  average_hops : float;
}

let energy_of_assignment platform ctg pe_of =
  let computation =
    Array.fold_left
      (fun acc (task : Noc_ctg.Task.t) -> acc +. task.energies.(pe_of task.id))
      0. (Noc_ctg.Ctg.tasks ctg)
  in
  let communication =
    Array.fold_left
      (fun acc (edge : Noc_ctg.Edge.t) ->
        acc
        +. Noc_noc.Platform.comm_energy platform ~src:(pe_of edge.src)
             ~dst:(pe_of edge.dst) ~bits:edge.volume)
      0. (Noc_ctg.Ctg.edges ctg)
  in
  computation +. communication

let misses ctg schedule =
  Array.to_list (Noc_ctg.Ctg.tasks ctg)
  |> List.filter_map (fun (task : Noc_ctg.Task.t) ->
         match task.deadline with
         | None -> None
         | Some d ->
           let finish = (Schedule.placement schedule task.id).Schedule.finish in
           if finish > d +. 1e-6 then Some (task.id, finish -. d) else None)

let compute platform ctg schedule =
  let pe_of task = (Schedule.placement schedule task).Schedule.pe in
  let computation_energy =
    Array.fold_left
      (fun acc (task : Noc_ctg.Task.t) -> acc +. task.energies.(pe_of task.id))
      0. (Noc_ctg.Ctg.tasks ctg)
  in
  let communication_energy =
    Array.fold_left
      (fun acc (edge : Noc_ctg.Edge.t) ->
        acc
        +. Noc_noc.Platform.comm_energy platform ~src:(pe_of edge.src)
             ~dst:(pe_of edge.dst) ~bits:edge.volume)
      0. (Noc_ctg.Ctg.edges ctg)
  in
  let deadline_misses = misses ctg schedule in
  let data_edges =
    Array.to_list (Noc_ctg.Ctg.edges ctg)
    |> List.filter (fun (e : Noc_ctg.Edge.t) -> e.volume > 0.)
  in
  let average_hops =
    match data_edges with
    | [] -> 0.
    | edges ->
      let total =
        List.fold_left
          (fun acc (e : Noc_ctg.Edge.t) ->
            acc
            +. float_of_int
                 (Noc_noc.Platform.hops platform ~src:(pe_of e.src) ~dst:(pe_of e.dst)))
          0. edges
      in
      total /. float_of_int (List.length edges)
  in
  {
    total_energy = computation_energy +. communication_energy;
    computation_energy;
    communication_energy;
    makespan = Schedule.makespan schedule;
    deadline_misses;
    average_hops;
  }

let miss_count t = List.length t.deadline_misses

let pp ppf t =
  Format.fprintf ppf
    "@[<v>energy = %.1f nJ (comp %.1f + comm %.1f)@,\
     makespan = %.1f@,deadline misses = %d@,average hops = %.2f@]"
    t.total_energy t.computation_energy t.communication_energy t.makespan
    (miss_count t) t.average_hops
