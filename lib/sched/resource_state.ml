type entry = { table : Noc_util.Timeline.t; interval : Noc_util.Interval.t }

type t = {
  platform : Noc_noc.Platform.t;
  pe_tables : Noc_util.Timeline.t array;
  link_tables : Noc_util.Timeline.t array;  (* indexed by src * n + dst *)
  mutable journal : entry list;
}

let create platform =
  let n = Noc_noc.Platform.n_pes platform in
  {
    platform;
    pe_tables = Array.init n (fun _ -> Noc_util.Timeline.create ());
    link_tables = Array.init (n * n) (fun _ -> Noc_util.Timeline.create ());
    journal = [];
  }

let platform t = t.platform
let pe_table t pe = t.pe_tables.(pe)

let link_index t (link : Noc_noc.Routing.link) =
  (link.from_node * Noc_noc.Platform.n_pes t.platform) + link.to_node

let link_table t link = t.link_tables.(link_index t link)

let c_reservations = Noc_obs.Counters.counter "sched.resource_state.reservations"
let c_snapshots = Noc_obs.Counters.counter "sched.resource_state.snapshots"
let c_rollbacks = Noc_obs.Counters.counter "sched.resource_state.rollbacks"
let c_redos = Noc_obs.Counters.counter "sched.resource_state.redos"

let journalled_reserve t table interval =
  Noc_util.Timeline.reserve table interval;
  if not (Noc_util.Interval.is_empty interval) then begin
    Noc_obs.Counters.incr c_reservations;
    t.journal <- { table; interval } :: t.journal
  end

let reserve_pe t ~pe interval = journalled_reserve t t.pe_tables.(pe) interval
let reserve_link t link interval = journalled_reserve t (link_table t link) interval

let earliest_pe_gap t ~pe ~after ~duration =
  Noc_util.Timeline.earliest_gap t.pe_tables.(pe) ~after ~duration

let earliest_route_gap t ~route ~after ~duration =
  match route with
  | [] -> after
  | links ->
    let tables = Array.of_list (List.map (link_table t) links) in
    Noc_util.Timeline.earliest_gap_multi tables ~after ~duration

(* The journal gets the entries [reserve_link] would have pushed over
   the route, in the same order. *)
let reserve_route_gap t tables ~after ~duration =
  let interval = Noc_util.Timeline.reserve_gap_multi tables ~after ~duration in
  if not (Noc_util.Interval.is_empty interval) then
    for k = 0 to Array.length tables - 1 do
      Noc_obs.Counters.incr c_reservations;
      t.journal <- { table = tables.(k); interval } :: t.journal
    done;
  interval

type mark = entry list

let mark t =
  Noc_obs.Counters.incr c_snapshots;
  t.journal

let rollback t m =
  Noc_obs.Counters.incr c_rollbacks;
  (* The mark is located before any table is touched, so an unknown or
     stale mark leaves the state as it was. *)
  let rec known journal =
    journal == m
    || match journal with [] -> false | _ :: rest -> known rest
  in
  if not (known t.journal) then invalid_arg "Resource_state.rollback: unknown mark";
  let rec undo journal =
    if journal != m then
      match journal with
      | [] -> assert false
      | { table; interval } :: rest ->
        Noc_util.Timeline.release table interval;
        undo rest
  in
  undo t.journal;
  t.journal <- m

let redo t m =
  Noc_obs.Counters.incr c_redos;
  let current = t.journal in
  (* The entries [m] holds beyond the current journal, oldest first;
     collected before any table is touched, so a bad mark leaves the
     state as it was. *)
  let rec newer acc journal =
    if journal == current then acc
    else
      match journal with
      | [] -> invalid_arg "Resource_state.redo: mark does not extend the journal"
      | entry :: rest -> newer (entry :: acc) rest
  in
  List.iter
    (fun { table; interval } -> Noc_util.Timeline.reserve table interval)
    (newer [] m);
  t.journal <- m
