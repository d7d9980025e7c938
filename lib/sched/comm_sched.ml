type model = Contention_aware | Fixed_delay

let route ?degraded platform ~src_pe ~dst_pe =
  if src_pe = dst_pe then [ src_pe ]
  else
    match degraded with
    | Some view when not (Noc_noc.Degraded.is_trivial view) ->
      Noc_noc.Degraded.route view ~src:src_pe ~dst:dst_pe
    | Some _ | None -> Noc_noc.Platform.route platform ~src:src_pe ~dst:dst_pe

let compare_sends ~finish_a ~edge_a ~finish_b ~edge_b =
  let c = Float.compare finish_a finish_b in
  if c <> 0 then c else Int.compare edge_a edge_b
