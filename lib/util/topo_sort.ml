module Int_set = Set.Make (Int)

let sort ~n ~succ =
  let indegree = Array.make n 0 in
  for v = 0 to n - 1 do
    List.iter (fun w -> indegree.(w) <- indegree.(w) + 1) (succ v)
  done;
  let frontier = ref Int_set.empty in
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then frontier := Int_set.add v !frontier
  done;
  let order = Array.make n 0 in
  let filled = ref 0 in
  while not (Int_set.is_empty !frontier) do
    let v = Int_set.min_elt !frontier in
    frontier := Int_set.remove v !frontier;
    order.(!filled) <- v;
    incr filled;
    List.iter
      (fun w ->
        indegree.(w) <- indegree.(w) - 1;
        if indegree.(w) = 0 then frontier := Int_set.add w !frontier)
      (succ v)
  done;
  if !filled = n then Ok order
  else
    Error
      (List.filter (fun v -> indegree.(v) > 0) (List.init n Fun.id))

let longest_path_lengths ~n ~succ ~weight =
  match sort ~n ~succ with
  | Error _ -> invalid_arg "Topo_sort.longest_path_lengths: graph has a cycle"
  | Ok order ->
    let best = Array.init n (fun v -> weight v) in
    Array.iter
      (fun v ->
        List.iter
          (fun w -> best.(w) <- Float.max best.(w) (best.(v) +. weight w))
          (succ v))
      order;
    best
