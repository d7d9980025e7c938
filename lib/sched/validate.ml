type violation =
  | Malformed of string
  | Task_overlap of { pe : int; task_a : int; task_b : int }
  | Link_conflict of { link : Noc_noc.Routing.link; edge_a : int; edge_b : int }
  | Dependency of { edge : int; detail : string }
  | Deadline_miss of { task : int; deadline : float; finish : float }

let pp_violation ppf = function
  | Malformed msg -> Format.fprintf ppf "malformed: %s" msg
  | Task_overlap { pe; task_a; task_b } ->
    Format.fprintf ppf "tasks %d and %d overlap on pe %d" task_a task_b pe
  | Link_conflict { link; edge_a; edge_b } ->
    Format.fprintf ppf "transactions %d and %d conflict on link %a" edge_a edge_b
      Noc_noc.Routing.pp_link link
  | Dependency { edge; detail } ->
    Format.fprintf ppf "dependency via edge %d violated: %s" edge detail
  | Deadline_miss { task; deadline; finish } ->
    Format.fprintf ppf "task %d finishes at %g, deadline %g" task finish deadline

(* A transaction's recorded route must be a real walk through the
   fabric: it starts at the sender's tile, ends at the receiver's, moves
   only along topology links and reserves no link twice. The walk need
   NOT be the platform's deterministic route: degraded-platform
   reschedules legitimately record detours. Same-tile transfers use no
   network at all, so they may record either the empty route or the
   single shared tile (the v2 schedule loader and the schedulers produce
   the latter, hand-built schedules often the former). *)
let route_walk_error platform (tr : Schedule.transaction) =
  let topology = Noc_noc.Platform.topology platform in
  match tr.route with
  | [] ->
    if tr.src_pe = tr.dst_pe then None
    else Some "has an empty route between distinct tiles"
  | [ p ] ->
    if tr.src_pe <> tr.dst_pe then Some "has a single-node route between distinct tiles"
    else if p <> tr.src_pe then Some "same-tile route names the wrong tile"
    else None
  | first :: _ :: _ ->
    if tr.src_pe = tr.dst_pe then Some "same-tile transaction records a multi-hop route"
    else if first <> tr.src_pe then Some "route does not start at the sender's tile"
    else begin
      let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> assert false in
      if last tr.route <> tr.dst_pe then Some "route does not end at the receiver's tile"
      else begin
        let links = Noc_noc.Routing.links_of_route tr.route in
        if
          not
            (List.for_all
               (fun (l : Noc_noc.Routing.link) ->
                 Noc_noc.Topology.are_neighbours topology l.from_node l.to_node)
               links)
        then Some "route uses a non-existent link"
        else if
          List.length (List.sort_uniq compare (List.map (fun (l : Noc_noc.Routing.link) -> (l.from_node, l.to_node)) links))
          <> List.length links
        then Some "route reserves a link twice"
        else None
      end
    end

(* The tolerance of every comparison. *)
let eps = 1e-6

let structural_checks platform ctg schedule add =
  let n_pes = Noc_noc.Platform.n_pes platform in
  let malformed fmt = Printf.ksprintf (fun s -> add (Malformed s)) fmt in
  if Schedule.n_tasks schedule <> Noc_ctg.Ctg.n_tasks ctg then
    malformed "schedule covers %d tasks, graph has %d" (Schedule.n_tasks schedule)
      (Noc_ctg.Ctg.n_tasks ctg)
  else begin
    Array.iter
      (fun (p : Schedule.placement) ->
        let task = Noc_ctg.Ctg.task ctg p.task in
        if p.pe < 0 || p.pe >= n_pes then malformed "task %d on unknown pe %d" p.task p.pe
        else begin
          let expected = task.Noc_ctg.Task.exec_times.(p.pe) in
          if not (Noc_util.Stats.fequal ~eps (p.finish -. p.start) expected) then
            malformed "task %d duration %g, cost table says %g" p.task
              (p.finish -. p.start) expected;
          if p.start < -.eps then malformed "task %d starts before time 0" p.task
        end)
      (Schedule.placements schedule);
    if Array.length (Schedule.transactions schedule) <> Noc_ctg.Ctg.n_edges ctg then
      malformed "schedule covers %d transactions, graph has %d edges"
        (Array.length (Schedule.transactions schedule))
        (Noc_ctg.Ctg.n_edges ctg)
    else
      Array.iter
        (fun (tr : Schedule.transaction) ->
          let edge = Noc_ctg.Ctg.edge ctg tr.edge in
          let src_place = Schedule.placement schedule edge.Noc_ctg.Edge.src in
          let dst_place = Schedule.placement schedule edge.Noc_ctg.Edge.dst in
          if tr.src_pe <> src_place.pe then
            malformed "transaction %d departs pe %d, sender runs on pe %d" tr.edge
              tr.src_pe src_place.pe;
          if tr.dst_pe <> dst_place.pe then
            malformed "transaction %d arrives at pe %d, receiver runs on pe %d"
              tr.edge tr.dst_pe dst_place.pe;
          (match route_walk_error platform tr with
          | Some detail -> malformed "transaction %d %s" tr.edge detail
          | None -> ());
          (* Duration follows from the recorded route's length, so a
             detour pays its extra router hops. *)
          let expected_duration =
            Noc_noc.Platform.route_duration platform ~route:tr.route
              ~bits:edge.Noc_ctg.Edge.volume
          in
          if not (Noc_util.Stats.fequal ~eps (tr.finish -. tr.start) expected_duration)
          then
            malformed "transaction %d lasts %g, volume/bandwidth gives %g" tr.edge
              (tr.finish -. tr.start) expected_duration)
        (Schedule.transactions schedule)
  end

let task_compatibility platform schedule add =
  for pe = 0 to Noc_noc.Platform.n_pes platform - 1 do
    let placements = Schedule.tasks_on_pe schedule ~pe in
    (* Sweep by start time, carrying the longest-running earlier task. *)
    let rec scan (cur : Schedule.placement) = function
      | [] -> ()
      | (b : Schedule.placement) :: rest ->
        if b.start < cur.finish -. eps then
          add (Task_overlap { pe; task_a = cur.task; task_b = b.task });
        scan (if b.finish > cur.finish then b else cur) rest
    in
    (match placements with [] -> () | first :: rest -> scan first rest)
  done

let transaction_compatibility schedule add =
  (* Group transactions by link, then check pairwise overlap per link. *)
  let by_link = Hashtbl.create 64 in
  Array.iter
    (fun (tr : Schedule.transaction) ->
      if tr.finish > tr.start then
        List.iter
          (fun link ->
            let key = (link.Noc_noc.Routing.from_node, link.to_node) in
            let existing = Option.value ~default:[] (Hashtbl.find_opt by_link key) in
            Hashtbl.replace by_link key (tr :: existing))
          (Schedule.links_of_transaction tr))
    (Schedule.transactions schedule);
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) by_link [] |> List.sort compare in
  List.iter
    (fun ((from_node, to_node) as key) ->
      let transactions =
        Hashtbl.find by_link key
        |> List.sort (fun (a : Schedule.transaction) b ->
               let c = Float.compare a.start b.start in
               if c <> 0 then c else compare a.edge b.edge)
      in
      let rec scan (cur : Schedule.transaction) = function
        | [] -> ()
        | (b : Schedule.transaction) :: rest ->
          if b.start < cur.finish -. eps then
            add
              (Link_conflict
                 { link = { from_node; to_node }; edge_a = cur.edge; edge_b = b.edge });
          scan (if b.finish > cur.finish then b else cur) rest
      in
      match transactions with [] -> () | first :: rest -> scan first rest)
    keys

let dependency_checks ctg schedule add =
  Array.iter
    (fun (tr : Schedule.transaction) ->
      let edge = Noc_ctg.Ctg.edge ctg tr.edge in
      let sender = Schedule.placement schedule edge.Noc_ctg.Edge.src in
      let receiver = Schedule.placement schedule edge.Noc_ctg.Edge.dst in
      if tr.start < sender.finish -. eps then
        add
          (Dependency
             {
               edge = tr.edge;
               detail =
                 Printf.sprintf "transaction departs at %g before sender finishes at %g"
                   tr.start sender.finish;
             });
      if receiver.start < tr.finish -. eps then
        add
          (Dependency
             {
               edge = tr.edge;
               detail =
                 Printf.sprintf "receiver starts at %g before data arrives at %g"
                   receiver.start tr.finish;
             }))
    (Schedule.transactions schedule)

let deadline_checks ctg schedule add =
  Array.iter
    (fun (task : Noc_ctg.Task.t) ->
      (match task.release with
      | None -> ()
      | Some release ->
        let p = Schedule.placement schedule task.id in
        if p.start < release -. eps then
          add
            (Malformed
               (Printf.sprintf "task %d starts at %g before its release %g" task.id
                  p.start release)));
      match task.deadline with
      | None -> ()
      | Some deadline ->
        let p = Schedule.placement schedule task.id in
        if p.finish > deadline +. eps then
          add (Deadline_miss { task = task.id; deadline; finish = p.finish }))
    (Noc_ctg.Ctg.tasks ctg)

let check platform ctg schedule =
  let acc = ref [] in
  let add v = acc := v :: !acc in
  structural_checks platform ctg schedule add;
  (* Pairwise checks only make sense on structurally sound schedules. *)
  if !acc = [] then begin
    task_compatibility platform schedule add;
    transaction_compatibility schedule add;
    dependency_checks ctg schedule add;
    deadline_checks ctg schedule add
  end;
  List.rev !acc

let is_feasible platform ctg schedule = check platform ctg schedule = []
