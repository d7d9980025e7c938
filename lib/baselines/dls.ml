module List_sched = Noc_sched.List_sched

let static_levels ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let order = Noc_ctg.Ctg.topological_order ctg in
  let sl = Array.make n 0. in
  for idx = n - 1 downto 0 do
    let i = order.(idx) in
    let down =
      List.fold_left (fun acc j -> Float.max acc sl.(j)) 0. (Noc_ctg.Ctg.succs ctg i)
    in
    sl.(i) <- Noc_ctg.Task.mean_exec_time (Noc_ctg.Ctg.task ctg i) +. down
  done;
  sl

let schedule platform ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let n_pes = Noc_noc.Platform.n_pes platform in
  let sl = static_levels ctg in
  let ls = List_sched.make platform ctg in
  let unscheduled_preds = Array.init n (fun i -> List.length (Noc_ctg.Ctg.preds ctg i)) in
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if unscheduled_preds.(i) = 0 then ready := i :: !ready
  done;
  for _ = 1 to n do
    (* Highest dynamic level over all (ready task, PE) pairs. *)
    let best = ref None in
    List.iter
      (fun i ->
        let task = Noc_ctg.Ctg.task ctg i in
        let mean = Noc_ctg.Task.mean_exec_time task in
        for k = 0 to n_pes - 1 do
          let delta = mean -. task.Noc_ctg.Task.exec_times.(k) in
          let dl = sl.(i) -. List_sched.probe ls i k +. delta in
          match !best with
          | Some (best_dl, bi, bk) when (best_dl, -bi, -bk) >= (dl, -i, -k) -> ()
          | Some _ | None -> best := Some (dl, i, k)
        done)
      !ready;
    let _, i, k = Option.get !best in
    List_sched.place ls i k;
    ready := List.filter (fun j -> j <> i) !ready;
    List.iter
      (fun j ->
        unscheduled_preds.(j) <- unscheduled_preds.(j) - 1;
        if unscheduled_preds.(j) = 0 then ready := !ready @ [ j ])
      (Noc_ctg.Ctg.succs ctg i)
  done;
  List_sched.schedule ls
