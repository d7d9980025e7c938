type model = Contention_aware | Fixed_delay

let compare_sends ~finish ~edge_src a b =
  let c = Float.compare finish.(edge_src.(a)) finish.(edge_src.(b)) in
  if c <> 0 then c else Int.compare a b
