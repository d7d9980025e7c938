let cell_symbol task_id =
  let alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789" in
  alphabet.[task_id mod String.length alphabet]

let paint row ~width ~horizon ~start ~finish symbol =
  if horizon > 0. && finish > start then begin
    let to_col t = int_of_float (t /. horizon *. float_of_int width) in
    let first = Stdlib.max 0 (to_col start) in
    let last = Stdlib.min (width - 1) (Stdlib.max first (to_col finish - 1)) in
    for col = first to last do
      Bytes.set row col symbol
    done
  end

let render ?(width = 72) platform _ctg schedule =
  let horizon = Schedule.makespan schedule in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "time 0 .. %.1f (one column = %.2f)\n" horizon
       (if horizon > 0. then horizon /. float_of_int width else 0.));
  for pe = 0 to Noc_noc.Platform.n_pes platform - 1 do
    let row = Bytes.make width '.' in
    List.iter
      (fun (p : Schedule.placement) ->
        paint row ~width ~horizon ~start:p.start ~finish:p.finish
          (cell_symbol p.task))
      (Schedule.tasks_on_pe schedule ~pe);
    Buffer.add_string buf (Printf.sprintf "pe %2d |%s|\n" pe (Bytes.to_string row))
  done;
  let by_link = Hashtbl.create 32 in
  Array.iter
    (fun (tr : Schedule.transaction) ->
      if tr.finish > tr.start then
        List.iter
          (fun (link : Noc_noc.Routing.link) ->
            let key = (link.from_node, link.to_node) in
            let cur = Option.value ~default:[] (Hashtbl.find_opt by_link key) in
            Hashtbl.replace by_link key (tr :: cur))
          (Schedule.links_of_transaction tr))
    (Schedule.transactions schedule);
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) by_link [] |> List.sort compare in
  List.iter
    (fun ((a, b) as key) ->
      let row = Bytes.make width '.' in
      List.iter
        (fun (tr : Schedule.transaction) ->
          paint row ~width ~horizon ~start:tr.start ~finish:tr.finish '#')
        (Hashtbl.find by_link key);
      Buffer.add_string buf
        (Printf.sprintf "%2d->%-2d|%s|\n" a b (Bytes.to_string row)))
    keys;
  Buffer.contents buf
