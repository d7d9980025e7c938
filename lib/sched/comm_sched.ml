type model = Contention_aware | Fixed_delay

let route ?degraded platform ~src_pe ~dst_pe =
  if src_pe = dst_pe then [ src_pe ]
  else
    match degraded with
    | Some view when not (Noc_noc.Degraded.is_trivial view) ->
      Noc_noc.Degraded.route view ~src:src_pe ~dst:dst_pe
    | Some _ | None -> Noc_noc.Platform.route platform ~src:src_pe ~dst:dst_pe

let compare_sends ~finish ~edge_src a b =
  let c = Float.compare finish.(edge_src.(a)) finish.(edge_src.(b)) in
  if c <> 0 then c else Int.compare a b
