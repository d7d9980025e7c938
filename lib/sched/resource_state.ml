module Timeline = Noc_util.Timeline

(* The journal is a flat undo log: entry [d] (for [d < depth]) is the
   [d]-th live reservation, held at [slots.(d)] of [tables.(d)] as
   [[starts.(d), stops.(d))], and [serials.(d)] names it. Serials are
   issued once per state, so a serial at a position determines every
   entry below it: a mark is a position plus the serial under it. *)
type t = {
  platform : Noc_noc.Platform.t;
  id : int;  (** Tells this state's marks from another's. *)
  pe_tables : Timeline.t array;
  link_tables : Timeline.t array;  (* indexed by src * n + dst *)
  mutable tables : Timeline.t array;
  mutable slots : int array;
  mutable starts : float array;
  mutable stops : float array;
  mutable serials : int array;
  mutable depth : int;
  mutable serial : int;  (** The last serial issued. *)
  mutable route_slots : int array;  (** {!reserve_route_gap}'s insertion points. *)
}

let next_id = Atomic.make 0

let create platform =
  let n = Noc_noc.Platform.n_pes platform in
  {
    platform;
    id = Atomic.fetch_and_add next_id 1;
    pe_tables = Array.init n (fun _ -> Timeline.create ());
    link_tables = Array.init (n * n) (fun _ -> Timeline.create ());
    tables = [||];
    slots = [||];
    starts = [||];
    stops = [||];
    serials = [||];
    depth = 0;
    serial = 0;
    route_slots = [||];
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

let grow t =
  let cap = Int.max 64 (2 * Array.length t.slots) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.depth;
    b
  in
  t.tables <- extend t.tables (Timeline.create ());
  t.slots <- extend t.slots 0;
  t.starts <- extend t.starts 0.;
  t.stops <- extend t.stops 0.;
  t.serials <- extend t.serials 0

(* Writes entry [depth] under serial [serial] and makes it live. *)
let[@inline] push t table slot ~start ~stop serial =
  let d = t.depth in
  if d = Array.length t.slots then grow t;
  t.tables.(d) <- table;
  t.slots.(d) <- slot;
  t.starts.(d) <- start;
  t.stops.(d) <- stop;
  t.serials.(d) <- serial;
  t.depth <- d + 1

let[@inline] journal t table slot ~start ~stop =
  Noc_obs.Counters.incr c_reservations;
  t.serial <- t.serial + 1;
  push t table slot ~start ~stop t.serial

let journalled_reserve t table (interval : Noc_util.Interval.t) =
  if Noc_util.Interval.is_empty interval then Timeline.reserve table interval
  else begin
    let start = interval.start and stop = interval.stop in
    let slot = Timeline.slot table start in
    Timeline.reserve_slot table slot ~start ~stop;
    journal t table slot ~start ~stop
  end

let reserve_pe t ~pe interval = journalled_reserve t t.pe_tables.(pe) interval
let reserve_link t link interval = journalled_reserve t (link_table t link) interval

let earliest_pe_gap t ~pe ~after ~duration =
  Timeline.earliest_gap t.pe_tables.(pe) ~after ~duration

let earliest_route_gap t ~route ~after ~duration =
  match route with
  | [] -> after
  | links ->
    let tables = Array.of_list (List.map (link_table t) links) in
    Timeline.earliest_gap_multi tables ~after ~duration

(* The journal gets the entries [reserve_link] would have pushed over
   the route, in the same order. *)
let reserve_route_gap t tables ~after ~duration =
  let n = Array.length tables in
  if Array.length t.route_slots < n then t.route_slots <- Array.make n 0;
  let start = Timeline.reserve_gap_multi tables t.route_slots ~after ~duration in
  let stop = start +. duration in
  if start <> stop then
    for k = 0 to n - 1 do
      journal t tables.(k) t.route_slots.(k) ~start ~stop
    done;
  start

type mark = { owner : int; depth : int; serial : int }

let[@inline] serial_at serials depth = if depth = 0 then 0 else serials.(depth - 1)

let mark t =
  Noc_obs.Counters.incr c_snapshots;
  { owner = t.id; depth = t.depth; serial = serial_at t.serials t.depth }

let equal_mark a b = a.owner = b.owner && a.depth = b.depth && a.serial = b.serial

let rollback t m =
  Noc_obs.Counters.incr c_rollbacks;
  (* The mark is checked before any table is touched, so an unknown or
     stale mark leaves the state as it was. *)
  if not (m.owner = t.id && m.depth <= t.depth && serial_at t.serials m.depth = m.serial)
  then invalid_arg "Resource_state.rollback: unknown mark";
  for d = t.depth - 1 downto m.depth do
    Timeline.release_slot t.tables.(d) t.slots.(d) ~start:t.starts.(d) ~stop:t.stops.(d);
    t.depth <- d
  done

type saved = {
  saved_owner : int;
  saved_tables : Timeline.t array;
  saved_slots : int array;
  saved_starts : float array;
  saved_stops : float array;
  saved_serials : int array;
}

let save (t : t) =
  let live a = Array.sub a 0 t.depth in
  {
    saved_owner = t.id;
    saved_tables = live t.tables;
    saved_slots = live t.slots;
    saved_starts = live t.starts;
    saved_stops = live t.stops;
    saved_serials = live t.serials;
  }

let redo t s m =
  Noc_obs.Counters.incr c_redos;
  (* The live journal must be a prefix of the saved one, and [m] a
     position of it at or above the live depth; checked before any
     table is touched. *)
  if
    not
      (s.saved_owner = t.id && m.owner = t.id && t.depth <= m.depth
      && m.depth <= Array.length s.saved_serials
      && serial_at s.saved_serials m.depth = m.serial
      && serial_at s.saved_serials t.depth = serial_at t.serials t.depth)
  then invalid_arg "Resource_state.redo: mark does not extend the journal";
  for d = t.depth to m.depth - 1 do
    let table = s.saved_tables.(d) and slot = s.saved_slots.(d) in
    let start = s.saved_starts.(d) and stop = s.saved_stops.(d) in
    Timeline.reserve_slot table slot ~start ~stop;
    push t table slot ~start ~stop s.saved_serials.(d)
  done
