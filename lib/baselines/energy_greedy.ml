module List_sched = Noc_sched.List_sched

let schedule platform ctg =
  let n_pes = Noc_noc.Platform.n_pes platform in
  let ls = List_sched.make platform ctg in
  Array.iter
    (fun i ->
      let task = Noc_ctg.Ctg.task ctg i in
      let energy k =
        task.Noc_ctg.Task.energies.(k)
        +. List.fold_left
             (fun acc (e : Noc_ctg.Edge.t) ->
               acc
               +. Noc_noc.Platform.comm_energy platform ~src:ls.pe.(e.src) ~dst:k
                    ~bits:e.volume)
             0. (Noc_ctg.Ctg.in_edges ctg i)
      in
      List_sched.place ls i (Noc_util.Stats.argmin (Array.init n_pes energy)))
    (Noc_ctg.Ctg.topological_order ctg);
  List_sched.schedule ls
