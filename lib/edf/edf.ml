module List_sched = Noc_sched.List_sched

let effective_deadlines ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let order = Noc_ctg.Ctg.topological_order ctg in
  let ed = Array.make n infinity in
  for idx = n - 1 downto 0 do
    let i = order.(idx) in
    let own =
      match (Noc_ctg.Ctg.task ctg i).Noc_ctg.Task.deadline with
      | None -> infinity
      | Some d -> d
    in
    let via_succs =
      List.fold_left
        (fun acc j ->
          let min_exec =
            Noc_util.Stats.min_value (Noc_ctg.Ctg.task ctg j).Noc_ctg.Task.exec_times
          in
          Float.min acc (ed.(j) -. min_exec))
        infinity (Noc_ctg.Ctg.succs ctg i)
    in
    ed.(i) <- Float.min own via_succs
  done;
  ed

let schedule ?comm_model platform ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let n_pes = Noc_noc.Platform.n_pes platform in
  let ed = effective_deadlines ctg in
  let ls = List_sched.make ?comm_model platform ctg in
  let unscheduled_preds = Array.init n (fun i -> List.length (Noc_ctg.Ctg.preds ctg i)) in
  let module Ready = Set.Make (struct
    type t = float * int  (* effective deadline, task *)

    let compare = compare
  end) in
  let ready = ref Ready.empty in
  for i = 0 to n - 1 do
    if unscheduled_preds.(i) = 0 then ready := Ready.add (ed.(i), i) !ready
  done;
  for _ = 1 to n do
    let ((_, i) as elt) = Ready.min_elt !ready in
    ready := Ready.remove elt !ready;
    (* Earliest finish over all PEs, the lowest index on ties. *)
    let exec_times = (Noc_ctg.Ctg.task ctg i).Noc_ctg.Task.exec_times in
    let best = ref 0 and best_finish = ref infinity in
    for k = 0 to n_pes - 1 do
      let finish = List_sched.probe ls i k +. exec_times.(k) in
      if k = 0 || finish < !best_finish then begin
        best := k;
        best_finish := finish
      end
    done;
    List_sched.place ls i !best;
    List.iter
      (fun j ->
        unscheduled_preds.(j) <- unscheduled_preds.(j) - 1;
        if unscheduled_preds.(j) = 0 then ready := Ready.add (ed.(j), j) !ready)
      (Noc_ctg.Ctg.succs ctg i)
  done;
  List_sched.schedule ls
