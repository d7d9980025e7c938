type model = Contention_aware | Fixed_delay

type pending = { edge : int; src_pe : int; sender_finish : float; bits : float }

let c_transactions = Noc_obs.Counters.counter "sched.comm.transactions"

let nontrivial = function
  | Some view when not (Noc_noc.Degraded.is_trivial view) -> Some view
  | Some _ | None -> None

let transmit ?(model = Contention_aware) ?degraded state ~src_pe ~dst_pe ~sender_finish
    ~bits =
  Noc_obs.Counters.incr c_transactions;
  if src_pe = dst_pe then Noc_util.Interval.make ~start:sender_finish ~stop:sender_finish
  else
    (* Degraded views detour around failed links, priced by their real
       length; their queries raise [Invalid_argument] on a disconnected
       pair. Platform routes read the state's per-pair table memo. *)
    let view = nontrivial degraded in
    let duration =
      match view with
      | None ->
        Noc_noc.Platform.comm_duration (Resource_state.platform state) ~src:src_pe
          ~dst:dst_pe ~bits
      | Some view -> Noc_noc.Degraded.comm_duration view ~src:src_pe ~dst:dst_pe ~bits
    in
    match model with
    | Fixed_delay ->
      Noc_util.Interval.make ~start:sender_finish ~stop:(sender_finish +. duration)
    | Contention_aware ->
      let tables =
        match view with
        | None -> Resource_state.route_tables state ~src:src_pe ~dst:dst_pe
        | Some view ->
          Array.of_list
            (List.map (Resource_state.link_table state)
               (Noc_noc.Degraded.route_links view ~src:src_pe ~dst:dst_pe))
      in
      Resource_state.reserve_route_gap state tables ~after:sender_finish ~duration

let route ?degraded platform ~src_pe ~dst_pe =
  if src_pe = dst_pe then [ src_pe ]
  else
    match nontrivial degraded with
    | Some view -> Noc_noc.Degraded.route view ~src:src_pe ~dst:dst_pe
    | None -> Noc_noc.Platform.route platform ~src:src_pe ~dst:dst_pe

let compare_sends ~finish_a ~edge_a ~finish_b ~edge_b =
  let c = Float.compare finish_a finish_b in
  if c <> 0 then c else Int.compare edge_a edge_b

let sort_pendings lct =
  List.sort
    (fun a b ->
      compare_sends ~finish_a:a.sender_finish ~edge_a:a.edge ~finish_b:b.sender_finish
        ~edge_b:b.edge)
    lct
