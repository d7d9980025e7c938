module Timeline = Noc_util.Timeline

(* The tables live in one array, PE tables then link tables, and an
   entry names its table by index there. The journal is a flat undo
   log: entry [d] (for [d < depth]) is the [d]-th live reservation, held
   at [slots.(d)] of table [ids.(d)] as [[starts.(d), stops.(d))], and
   [serials.(d)] names it. Serials are issued once per state, so a
   serial at a position determines every entry below it: a mark is a
   position plus the serial under it. Every journal array holds ints or
   floats, so a push stores no pointer and a {!save} copies no table
   reference. *)
type t = {
  platform : Noc_noc.Platform.t;
  id : int;  (** Tells this state's marks from another's. *)
  n_pes : int;
  tables : Timeline.t array;
      (** PE [pe]'s table at [pe], link [src -> dst]'s at
          [n_pes + src * n_pes + dst]. *)
  pe_tables : Timeline.t array array;  (** [[| tables.(pe) |]], for {!reserve_pe_gap}. *)
  pe_ids : int array array;  (** [[| pe |]]. *)
  mutable ids : int array;
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
  let tables = Array.init (n + (n * n)) (fun _ -> Timeline.create ()) in
  {
    platform;
    id = Atomic.fetch_and_add next_id 1;
    n_pes = n;
    tables;
    pe_tables = Array.init n (fun pe -> [| tables.(pe) |]);
    pe_ids = Array.init n (fun pe -> [| pe |]);
    ids = [||];
    slots = [||];
    starts = [||];
    stops = [||];
    serials = [||];
    depth = 0;
    serial = 0;
    route_slots = [||];
  }

let platform t = t.platform
let pe_table t pe = t.tables.(pe)

let link_id t (link : Noc_noc.Routing.link) =
  t.n_pes + (link.from_node * t.n_pes) + link.to_node

let link_table t link = t.tables.(link_id t link)

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
  t.ids <- extend t.ids 0;
  t.slots <- extend t.slots 0;
  t.starts <- extend t.starts 0.;
  t.stops <- extend t.stops 0.;
  t.serials <- extend t.serials 0

(* Makes entry [depth] live under [serial], at slot [slot] of table
   [id], and returns its position; the caller writes its interval. *)
let[@inline] push t id slot serial =
  let d = t.depth in
  if d = Array.length t.slots then grow t;
  t.ids.(d) <- id;
  t.slots.(d) <- slot;
  t.serials.(d) <- serial;
  t.depth <- d + 1;
  d

let[@inline] journal t id slot =
  Noc_obs.Counters.incr c_reservations;
  t.serial <- t.serial + 1;
  push t id slot t.serial

let reserve_link t link (interval : Noc_util.Interval.t) =
  let id = link_id t link in
  let slot = Timeline.slot t.tables.(id) interval.start in
  Timeline.reserve t.tables.(id) interval;
  if not (Noc_util.Interval.is_empty interval) then begin
    let d = journal t id slot in
    t.starts.(d) <- interval.start;
    t.stops.(d) <- interval.stop
  end

let earliest_pe_gap t ~pe ~after ~duration =
  Timeline.earliest_gap t.tables.(pe) ~after ~duration

(* The journal gets one entry per table, in array order: the entries
   [reserve_link] would have pushed over a route. *)
let reserve_route_gap t tables ids window =
  let n = Array.length tables in
  if Array.length t.route_slots < n then t.route_slots <- Array.make n 0;
  Timeline.reserve_gap_multi tables t.route_slots window;
  let start = window.(0) in
  let stop = start +. window.(1) in
  if start <> stop then
    for k = 0 to n - 1 do
      let d = journal t ids.(k) t.route_slots.(k) in
      t.starts.(d) <- start;
      t.stops.(d) <- stop
    done

let reserve_pe_gap t ~pe window =
  reserve_route_gap t t.pe_tables.(pe) t.pe_ids.(pe) window

type mark = { owner : int; depth : int; serial : int }

let[@inline] serial_at serials depth = if depth = 0 then 0 else serials.(depth - 1)

let mark t =
  Noc_obs.Counters.incr c_snapshots;
  { owner = t.id; depth = t.depth; serial = serial_at t.serials t.depth }

let rollback t m =
  Noc_obs.Counters.incr c_rollbacks;
  (* The mark is checked before any table is touched, so an unknown or
     stale mark leaves the state as it was. *)
  if not (m.owner = t.id && m.depth <= t.depth && serial_at t.serials m.depth = m.serial)
  then invalid_arg "Resource_state.rollback: unknown mark";
  for d = t.depth - 1 downto m.depth do
    Timeline.release_slot t.tables.(t.ids.(d)) t.slots.(d) ~starts:t.starts ~stops:t.stops d;
    t.depth <- d
  done

type saved = {
  saved_owner : int;
  saved_ids : int array;
  saved_slots : int array;
  saved_starts : float array;
  saved_stops : float array;
  saved_serials : int array;
}

let save (t : t) =
  let live a = Array.sub a 0 t.depth in
  {
    saved_owner = t.id;
    saved_ids = live t.ids;
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
    let id = s.saved_ids.(d) and slot = s.saved_slots.(d) in
    Timeline.reserve_slot t.tables.(id) slot ~starts:s.saved_starts ~stops:s.saved_stops d;
    let e = push t id slot s.saved_serials.(d) in
    t.starts.(e) <- s.saved_starts.(d);
    t.stops.(e) <- s.saved_stops.(d)
  done
