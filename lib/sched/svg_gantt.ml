let palette =
  [|
    "#4e79a7"; "#f28e2b"; "#59a14f"; "#e15759"; "#76b7b2"; "#edc948";
    "#b07aa1"; "#ff9da7"; "#9c755f"; "#bab0ac";
  |]

let escape_xml s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render platform ctg schedule =
  let width = 960 and lane_height = 28 and margin_left = 90 and margin_top = 30 in
  let horizon = Float.max 1e-9 (Schedule.makespan schedule) in
  let plot_width = float_of_int (width - margin_left - 20) in
  let x_of t = float_of_int margin_left +. (t /. horizon *. plot_width) in
  let n_pes = Noc_noc.Platform.n_pes platform in
  (* Collect link lanes with traffic. *)
  let link_lanes =
    let by_link = Hashtbl.create 16 in
    Array.iter
      (fun (tr : Schedule.transaction) ->
        if tr.finish > tr.start then
          List.iter
            (fun (l : Noc_noc.Routing.link) ->
              let key = (l.from_node, l.to_node) in
              let existing = Option.value ~default:[] (Hashtbl.find_opt by_link key) in
              Hashtbl.replace by_link key (tr :: existing))
            (Schedule.links_of_transaction tr))
      (Schedule.transactions schedule);
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_link [] |> List.sort compare
  in
  let n_lanes = n_pes + List.length link_lanes in
  let height = margin_top + (n_lanes * lane_height) + 20 in
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
     font-family=\"sans-serif\" font-size=\"11\">\n"
    width height;
  add "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n" width height;
  (* Time axis with ten ticks. *)
  for tick = 0 to 10 do
    let t = horizon *. float_of_int tick /. 10. in
    let x = x_of t in
    add
      "<line x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\" stroke=\"#ddd\"/>\n" x
      margin_top x
      (margin_top + (n_lanes * lane_height));
    add "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\" fill=\"#666\">%.0f</text>\n"
      x (margin_top - 8) t
  done;
  let lane_y lane = margin_top + (lane * lane_height) in
  (* PE lanes. *)
  for pe = 0 to n_pes - 1 do
    let y = lane_y pe in
    add "<text x=\"6\" y=\"%d\" fill=\"#333\">pe %d (%s)</text>\n"
      (y + (lane_height / 2) + 4)
      pe
      (Noc_noc.Pe.kind_name (Noc_noc.Platform.pe platform pe).Noc_noc.Pe.kind);
    List.iter
      (fun (p : Schedule.placement) ->
        let task = Noc_ctg.Ctg.task ctg p.task in
        let missed = List_sched.lateness task p.finish > 0. in
        let x = x_of p.start and w = Float.max 1. (x_of p.finish -. x_of p.start) in
        add
          "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" fill=\"%s\" \
           stroke=\"%s\" stroke-width=\"%d\"><title>%s [%g, %g)</title></rect>\n"
          x (y + 3) w (lane_height - 6)
          palette.(p.task mod Array.length palette)
          (if missed then "#d00" else "#333")
          (if missed then 2 else 1)
          (escape_xml task.Noc_ctg.Task.name)
          p.start p.finish;
        if w > 40. then
          add
            "<text x=\"%.1f\" y=\"%d\" fill=\"white\">%s</text>\n"
            (x +. 4.)
            (y + (lane_height / 2) + 4)
            (escape_xml task.Noc_ctg.Task.name))
      (Schedule.tasks_on_pe schedule ~pe)
  done;
  (* Link lanes. *)
  List.iteri
    (fun i ((from_node, to_node), transactions) ->
      let y = lane_y (n_pes + i) in
      add "<text x=\"6\" y=\"%d\" fill=\"#777\">link %d-&gt;%d</text>\n"
        (y + (lane_height / 2) + 4)
        from_node to_node;
      List.iter
        (fun (tr : Schedule.transaction) ->
          let x = x_of tr.start and w = Float.max 1. (x_of tr.finish -. x_of tr.start) in
          add
            "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" fill=\"#888\" \
             opacity=\"0.7\"><title>edge %d [%g, %g)</title></rect>\n"
            x (y + 7) w (lane_height - 14) tr.edge tr.start tr.finish)
        transactions)
    link_lanes;
  add "</svg>\n";
  Buffer.contents buf

let save ~path platform ctg schedule =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render platform ctg schedule))
