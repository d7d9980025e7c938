type carried = { from_task : int; to_task : int; volume : float }

let periodic ?(carried = []) ctg ~period ~copies =
  if not (period > 0.) then invalid_arg "Unroll.periodic: period must be positive";
  if copies < 1 then invalid_arg "Unroll.periodic: copies must be >= 1";
  let n = Ctg.n_tasks ctg in
  List.iter
    (fun c ->
      if c.from_task < 0 || c.from_task >= n || c.to_task < 0 || c.to_task >= n then
        invalid_arg "Unroll.periodic: carried arc references unknown task";
      if c.volume < 0. then invalid_arg "Unroll.periodic: carried volume negative")
    carried;
  let sources = Ctg.sources ctg in
  let is_source i = List.mem i sources in
  let tasks =
    Array.init (copies * n) (fun id ->
        let k = id / n and i = id mod n in
        let task = Ctg.task ctg i in
        let shift = float_of_int k *. period in
        let release =
          match task.Task.release with
          | Some r -> Some (r +. shift)
          | None ->
            (* Frame k's inputs only exist once frame k has arrived. *)
            if is_source i && k > 0 then Some shift else None
        in
        Task.make ~id
          ~name:(Printf.sprintf "%s@%d" task.Task.name k)
          ~exec_times:task.Task.exec_times ~energies:task.Task.energies ?release
          ?deadline:(Option.map (fun d -> d +. shift) task.Task.deadline)
          ())
  in
  let edges_per_copy = Ctg.n_edges ctg in
  let intra =
    List.concat
      (List.init copies (fun k ->
           Array.to_list (Ctg.edges ctg)
           |> List.map (fun (e : Edge.t) ->
                  Edge.make
                    ~id:((k * edges_per_copy) + e.id)
                    ~src:((k * n) + e.src) ~dst:((k * n) + e.dst) ~volume:e.volume)))
  in
  let carried_edges =
    List.concat
      (List.init (copies - 1) (fun k ->
           List.mapi
             (fun j c ->
               Edge.make
                 ~id:((copies * edges_per_copy) + (k * List.length carried) + j)
                 ~src:((k * n) + c.from_task)
                 ~dst:(((k + 1) * n) + c.to_task)
                 ~volume:c.volume)
             carried))
  in
  Ctg.make_exn ~tasks ~edges:(Array.of_list (intra @ carried_edges))
