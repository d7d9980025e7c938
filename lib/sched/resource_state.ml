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

(* Grows the journal to hold at least [n] entries. *)
let reserve_journal t n =
  if n > Array.length t.slots then begin
    let cap = Int.max n (Int.max 64 (2 * Array.length t.slots)) in
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
  end

(* Makes entry [depth] live under a new serial, at slot [slot] of table
   [id], and returns its position; the caller writes its interval and
   counts the reservation. *)
let[@inline] journal t id slot =
  let d = t.depth in
  if d = Array.length t.slots then reserve_journal t (d + 1);
  t.serial <- t.serial + 1;
  t.ids.(d) <- id;
  t.slots.(d) <- slot;
  t.serials.(d) <- t.serial;
  t.depth <- d + 1;
  d

let reserve_link t link (interval : Noc_util.Interval.t) =
  let id = link_id t link in
  let slot = Timeline.slot t.tables.(id) interval.start in
  Timeline.reserve t.tables.(id) interval;
  if not (Noc_util.Interval.is_empty interval) then begin
    Noc_obs.Counters.incr c_reservations;
    let d = journal t id slot in
    t.starts.(d) <- interval.start;
    t.stops.(d) <- interval.stop
  end

let earliest_pe_gap t ~pe window = Timeline.earliest_gap_window t.tables.(pe) window

(* The journal gets one entry per table, in array order: the entries
   [reserve_link] would have pushed over a route. *)
let reserve_route_gap t tables ids window =
  let n = Array.length tables in
  if Array.length t.route_slots < n then t.route_slots <- Array.make n 0;
  Timeline.reserve_gap_multi tables t.route_slots window;
  let start = window.(0) in
  let stop = start +. window.(1) in
  if start <> stop then begin
    Noc_obs.Counters.add c_reservations n;
    for k = 0 to n - 1 do
      let d = journal t ids.(k) t.route_slots.(k) in
      t.starts.(d) <- start;
      t.stops.(d) <- stop
    done
  end

let reserve_pe_gap t ~pe window =
  reserve_route_gap t t.pe_tables.(pe) t.pe_ids.(pe) window

type mark = { owner : int; depth : int; serial : int }

let[@inline] serial_at serials depth = if depth = 0 then 0 else serials.(depth - 1)

let mark t =
  Noc_obs.Counters.incr c_snapshots;
  { owner = t.id; depth = t.depth; serial = serial_at t.serials t.depth }

(* Releases every entry above [depth], newest first, in one call into
   [Timeline]. The caller has checked that [depth] is a position of the
   live journal. *)
let unwind t depth =
  let left =
    Timeline.release_slots t.tables ~ids:t.ids ~slots:t.slots ~starts:t.starts
      ~stops:t.stops depth t.depth
  in
  t.depth <- left;
  if left > depth then
    invalid_arg
      (Printf.sprintf "Resource_state.rollback: journal entry %d no longer holds its slot"
         (left - 1))

(* The mark is checked before any table is touched, so an unknown or
   stale mark leaves the state as it was. *)
let rollback_checked t ~owner ~depth ~serial =
  Noc_obs.Counters.incr c_rollbacks;
  if not (owner = t.id && depth <= t.depth && serial_at t.serials depth = serial) then
    invalid_arg "Resource_state.rollback: unknown mark";
  unwind t depth

let rollback t m = rollback_checked t ~owner:m.owner ~depth:m.depth ~serial:m.serial

type saved = {
  saved_owner : int;
  mutable saved_depth : int;
  mutable saved_ids : int array;
  mutable saved_slots : int array;
  mutable saved_starts : float array;
  mutable saved_stops : float array;
  mutable saved_serials : int array;
}

let save_into t s =
  if s.saved_owner <> t.id then invalid_arg "Resource_state.save_into: a copy of another state";
  let n = t.depth in
  if n > Array.length s.saved_serials then begin
    let cap = Array.length t.slots in
    s.saved_ids <- Array.make cap 0;
    s.saved_slots <- Array.make cap 0;
    s.saved_starts <- Array.make cap 0.;
    s.saved_stops <- Array.make cap 0.;
    s.saved_serials <- Array.make cap 0
  end;
  Array.blit t.ids 0 s.saved_ids 0 n;
  Array.blit t.slots 0 s.saved_slots 0 n;
  Array.blit t.starts 0 s.saved_starts 0 n;
  Array.blit t.stops 0 s.saved_stops 0 n;
  Array.blit t.serials 0 s.saved_serials 0 n;
  s.saved_depth <- n

let save t =
  let s =
    {
      saved_owner = t.id;
      saved_depth = 0;
      saved_ids = [||];
      saved_slots = [||];
      saved_starts = [||];
      saved_stops = [||];
      saved_serials = [||];
    }
  in
  save_into t s;
  s

(* The live journal must be a prefix of the saved one, and the target a
   position of it at or above the live depth; checked before any table
   is touched. The entries are reserved in one call into [Timeline],
   then copied into the journal. *)
let redo_checked t s ~owner ~depth ~serial =
  Noc_obs.Counters.incr c_redos;
  if
    not
      (s.saved_owner = t.id && owner = t.id && t.depth <= depth && depth <= s.saved_depth
      && serial_at s.saved_serials depth = serial
      && serial_at s.saved_serials t.depth = serial_at t.serials t.depth)
  then invalid_arg "Resource_state.redo_to: mark does not extend the journal";
  reserve_journal t depth;
  let from = t.depth in
  let reached =
    Timeline.reserve_slots t.tables ~ids:s.saved_ids ~slots:s.saved_slots
      ~starts:s.saved_starts ~stops:s.saved_stops from depth
  in
  let n = reached - from in
  Array.blit s.saved_ids from t.ids from n;
  Array.blit s.saved_slots from t.slots from n;
  Array.blit s.saved_starts from t.starts from n;
  Array.blit s.saved_stops from t.stops from n;
  Array.blit s.saved_serials from t.serials from n;
  t.depth <- reached;
  if reached < depth then
    invalid_arg
      (Printf.sprintf "Resource_state.redo_to: journal entry %d no longer fits its slot" reached)

type marks = { marks_owner : int; mark_depths : int array; mark_serials : int array }

let marks t n =
  { marks_owner = t.id; mark_depths = Array.make n 0; mark_serials = Array.make n 0 }

let set_mark t ms i =
  Noc_obs.Counters.incr c_snapshots;
  if ms.marks_owner <> t.id then invalid_arg "Resource_state.set_mark: marks of another state";
  ms.mark_depths.(i) <- t.depth;
  ms.mark_serials.(i) <- serial_at t.serials t.depth

let rollback_to t ms i =
  rollback_checked t ~owner:ms.marks_owner ~depth:ms.mark_depths.(i) ~serial:ms.mark_serials.(i)

let redo_to t s ms i =
  redo_checked t s ~owner:ms.marks_owner ~depth:ms.mark_depths.(i) ~serial:ms.mark_serials.(i)
