type placement = { task : int; pe : int; start : float; finish : float }

type transaction = {
  edge : int;
  src_pe : int;
  dst_pe : int;
  route : int list;
  start : float;
  finish : float;
}

type t = { placements : placement array; transactions : transaction array }

let make ~placements ~transactions =
  Array.iteri
    (fun i p -> if p.task <> i then invalid_arg "Schedule.make: placement order")
    placements;
  Array.iteri
    (fun i tr -> if tr.edge <> i then invalid_arg "Schedule.make: transaction order")
    transactions;
  { placements; transactions }

let placement t i = t.placements.(i)
let transaction t e = t.transactions.(e)
let placements t = t.placements
let transactions t = t.transactions
let n_tasks t = Array.length t.placements

let makespan t =
  Array.fold_left
    (fun acc (p : placement) -> Float.max acc p.finish)
    0. t.placements

let tasks_on_pe t ~pe =
  Array.to_list t.placements
  |> List.filter (fun (p : placement) -> p.pe = pe)
  |> List.sort (fun (a : placement) (b : placement) -> Float.compare a.start b.start)

let links_of_transaction tr = Noc_noc.Routing.links_of_route tr.route
