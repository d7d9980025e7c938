(* Implementation-independent re-verification of a schedule. This module
   intentionally re-derives every check from the model definitions
   instead of calling into Noc_sched.Validate: the two checkers share
   only the data types, so they can serve as differential oracles for
   each other (a bug in one is caught by disagreement with the other,
   exercised by the test suite over the golden corpus).

   The checks run over the schedule's arrays in loops: bookings are
   flat arrays counting-sorted by resource, a route walk marks the
   channels it reserves in one stamp array, and no check compares
   polymorphically. *)

module Schedule = Noc_sched.Schedule
module Platform = Noc_noc.Platform
module Topology = Noc_noc.Topology
module Ctg = Noc_ctg.Ctg
module Task = Noc_ctg.Task
module Edge = Noc_ctg.Edge

(* The tolerance of every comparison. *)
let eps = 1e-6

(* Routers a recorded route visits; a same-tile transfer ([] or [p])
   occupies no router. Deliberately local — not Platform.route_hops. *)
let hop_count = function [] | [ _ ] -> 0 | route -> List.length route

let rec last = function
  | [ x ] -> x
  | _ :: rest -> last rest
  | [] -> invalid_arg "Certify.last: empty route"

let energy platform ctg schedule =
  let model = Platform.energy_model platform in
  let tasks = Ctg.tasks ctg and edges = Ctg.edges ctg in
  let computation = ref 0. in
  for i = 0 to Array.length tasks - 1 do
    let t = tasks.(i) in
    computation :=
      !computation +. t.energies.((Schedule.placement schedule t.id).Schedule.pe)
  done;
  let communication = ref 0. in
  for j = 0 to Array.length edges - 1 do
    let e = edges.(j) in
    let tr = Schedule.transaction schedule e.id in
    communication :=
      !communication
      +. Noc_noc.Energy_model.transfer_energy model ~n_hops:(hop_count tr.route)
           ~bits:e.volume
  done;
  !computation +. !communication

(* ------------------------------------------------------------------ *)
(* Per-element checks                                                  *)

(* [scaled] holds the expected durations of a DVFS-scaled schedule,
   slowdown × base duration (rule dvfs/duration); without it a window
   is held to the cost table. *)
let placement_checks ?scaled platform ctg placements add =
  let n_pes = Platform.n_pes platform in
  for i = 0 to Array.length placements - 1 do
    let (p : Schedule.placement) = placements.(i) in
    if p.pe < 0 || p.pe >= n_pes then
      add
        (Diagnostic.error ~rule:"sched/pe-range" (Diagnostic.Task p.task)
           "placed on pe %d of a %d-PE platform" p.pe n_pes)
    else begin
      if p.start < -.eps || p.finish < p.start -. eps then
        add
          (Diagnostic.error ~rule:"sched/time-window" (Diagnostic.Task p.task)
             "window [%g, %g) is not a forward interval from time 0" p.start p.finish);
      let expected =
        match scaled with
        | None -> (Ctg.task ctg p.task).Task.exec_times.(p.pe)
        | Some durations -> durations.(p.task)
      in
      if Float.abs (p.finish -. p.start -. expected) > eps then begin
        let rule, source =
          match scaled with
          | None -> ("sched/duration", "cost table")
          | Some _ -> ("dvfs/duration", "level x base duration")
        in
        add
          (Diagnostic.error ~rule (Diagnostic.Task p.task)
             "runs for %g on pe %d, %s says %g" (p.finish -. p.start) p.pe source
             expected)
      end
    end
  done

let route_error add edge msg =
  add (Diagnostic.error ~rule:"sched/route-walk" (Diagnostic.Edge edge) "%s" msg)

let rec off_chip n = function [] -> false | p :: rest -> p < 0 || p >= n || off_chip n rest

(* The state of every channel a->b, slot [a * n + b], during the route
   walks: [no_link] when no physical link joins the tiles, [unreserved],
   or the edge whose route last reserved it. *)
let no_link = -2
let unreserved = -1

let channel_states topology n =
  let states = Array.make (n * n) no_link in
  for a = 0 to n - 1 do
    List.iter
      (fun b -> if b <> a then states.((a * n) + b) <- unreserved)
      (Topology.neighbours topology a)
  done;
  states

(* Walks the steps of an on-chip route from [a], stopping at the first
   step that is no link or reserves a channel twice. *)
let rec walk_steps n states add edge a = function
  | [] -> ()
  | b :: rest ->
    let channel = (a * n) + b in
    if states.(channel) = no_link then
      route_error add edge
        (Printf.sprintf "route steps %d -> %d without a physical link" a b)
    else if states.(channel) = edge then
      route_error add edge (Printf.sprintf "route reserves channel %d->%d twice" a b)
    else begin
      states.(channel) <- edge;
      walk_steps n states add edge b rest
    end

let route_walk_checks n states add (tr : Schedule.transaction) =
  if tr.src_pe = tr.dst_pe then begin
    (* Same-tile transfers use no network; they may record either no
       route at all or the single shared tile. *)
    match tr.route with
    | [] -> ()
    | [ p ] when p = tr.src_pe -> ()
    | [ p ] ->
      route_error add tr.edge
        (Printf.sprintf "same-tile route names tile %d, task runs on tile %d" p tr.src_pe)
    | _ :: _ :: _ -> route_error add tr.edge "same-tile transfer records a multi-hop route"
  end
  else
    match tr.route with
    | [] | [ _ ] ->
      route_error add tr.edge
        (Printf.sprintf "distinct tiles %d and %d need a multi-hop route" tr.src_pe
           tr.dst_pe)
    | first :: (_ :: _ as rest) as route ->
      if off_chip n route then
        route_error add tr.edge
          (Printf.sprintf "route leaves the chip (a node is outside 0..%d)" (n - 1))
      else if first <> tr.src_pe then
        route_error add tr.edge
          (Printf.sprintf "route starts at tile %d, sender sits on %d" first tr.src_pe)
      else if last route <> tr.dst_pe then
        route_error add tr.edge
          (Printf.sprintf "route ends at tile %d, receiver sits on %d" (last route)
             tr.dst_pe)
      else walk_steps n states add tr.edge first rest

let transaction_checks platform ctg schedule add =
  let bandwidth = Platform.link_bandwidth platform in
  let latency = Platform.router_latency platform in
  let n = Platform.n_pes platform in
  let states = channel_states (Platform.topology platform) n in
  let transactions = Schedule.transactions schedule in
  for j = 0 to Array.length transactions - 1 do
    let (tr : Schedule.transaction) = transactions.(j) in
    let e = Ctg.edge ctg tr.edge in
    let sender = Schedule.placement schedule e.src in
    let receiver = Schedule.placement schedule e.dst in
    if tr.src_pe <> sender.pe then
      add
        (Diagnostic.error ~rule:"sched/endpoint-pe" (Diagnostic.Edge tr.edge)
           "departs pe %d, but task %d runs on pe %d" tr.src_pe e.src sender.pe);
    if tr.dst_pe <> receiver.pe then
      add
        (Diagnostic.error ~rule:"sched/endpoint-pe" (Diagnostic.Edge tr.edge)
           "arrives at pe %d, but task %d runs on pe %d" tr.dst_pe e.dst receiver.pe);
    route_walk_checks n states add tr;
    let hops = hop_count tr.route in
    let expected =
      if hops = 0 then 0.
      else (e.volume /. bandwidth) +. (float_of_int (hops - 1) *. latency)
    in
    if Float.abs (tr.finish -. tr.start -. expected) > eps then
      add
        (Diagnostic.error ~rule:"sched/duration" (Diagnostic.Edge tr.edge)
           "occupies its route for %g; %g bits over a %d-router route take %g"
           (tr.finish -. tr.start) e.volume hops expected)
  done

(* ------------------------------------------------------------------ *)
(* Pairwise exclusion                                                  *)

(* Both exclusions reduce to the same question: do two half-open
   windows booked on one resource overlap? Every booking is one slot of
   four parallel arrays: resource id in [0, n_res), start, finish and
   owner. The scan order is (resource, start, owner): a counting sort
   on the resource, then a merge sort of each resource's run on
   (start, owner). Owners are distinct within a resource, so the order
   is total and any sort gives it. *)
type bookings = {
  res : int array;
  start : float array;
  finish : float array;
  owner : int array;
}

let bookings n =
  { res = Array.make n 0; start = Array.make n 0.; finish = Array.make n 0.; owner = Array.make n 0 }

let[@inline] before b i j =
  let c = Float.compare b.start.(i) b.start.(j) in
  c < 0 || (c = 0 && b.owner.(i) < b.owner.(j))

(* Sorts [order.(lo .. hi - 1)] by [before], through [tmp]. *)
let rec sort_run b order tmp lo hi =
  if hi - lo <= 8 then
    for k = lo + 1 to hi - 1 do
      let x = order.(k) in
      let j = ref (k - 1) in
      while !j >= lo && before b x order.(!j) do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_run b order tmp lo mid;
    sort_run b order tmp mid hi;
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !j >= hi || (!i < mid && not (before b order.(!j) order.(!i))) then begin
        tmp.(k) <- order.(!i);
        incr i
      end
      else begin
        tmp.(k) <- order.(!j);
        incr j
      end
    done;
    Array.blit tmp lo order lo (hi - lo)
  end

(* Reports every pair [report r o1 o2] of the first [count] bookings
   whose windows overlap on resource [r]. *)
let overlap_scan ~n_res b count report =
  let first = Array.make (n_res + 1) 0 in
  for i = 0 to count - 1 do
    let r = b.res.(i) + 1 in
    first.(r) <- first.(r) + 1
  done;
  for r = 1 to n_res do
    first.(r) <- first.(r) + first.(r - 1)
  done;
  let fill = Array.sub first 0 n_res in
  let order = Array.make count 0 in
  for i = 0 to count - 1 do
    let r = b.res.(i) in
    order.(fill.(r)) <- i;
    fill.(r) <- fill.(r) + 1
  done;
  let tmp = Array.make count 0 in
  for r = 0 to n_res - 1 do
    let lo = first.(r) and hi = first.(r + 1) in
    if hi - lo > 1 then begin
      sort_run b order tmp lo hi;
      (* Within one resource, carry the booking that reaches furthest so
         a long window is compared against every later start. *)
      let cur = ref order.(lo) in
      for k = lo + 1 to hi - 1 do
        let next = order.(k) in
        if b.start.(next) < b.finish.(!cur) -. eps then report r b.owner.(!cur) b.owner.(next);
        if b.finish.(next) > b.finish.(!cur) then cur := next
      done
    end
  done

let pe_exclusion platform schedule add =
  let placements = Schedule.placements schedule in
  let b = bookings (Array.length placements) in
  let count = ref 0 in
  for i = 0 to Array.length placements - 1 do
    let (p : Schedule.placement) = placements.(i) in
    if p.finish > p.start then begin
      let k = !count in
      b.res.(k) <- p.pe;
      b.start.(k) <- p.start;
      b.finish.(k) <- p.finish;
      b.owner.(k) <- p.task;
      count := k + 1
    end
  done;
  overlap_scan ~n_res:(Platform.n_pes platform) b !count (fun pe first second ->
      add
        (Diagnostic.error ~rule:"sched/pe-overlap" (Diagnostic.Pe pe)
           "tasks %d and %d run concurrently" first second))

(* Books channel a->b, resource [a * n + b], for every step of a route. *)
let rec book_channels b n count (tr : Schedule.transaction) a = function
  | [] -> count
  | next :: rest ->
    b.res.(count) <- (a * n) + next;
    b.start.(count) <- tr.start;
    b.finish.(count) <- tr.finish;
    b.owner.(count) <- tr.edge;
    book_channels b n (count + 1) tr next rest

let link_exclusion platform schedule add =
  let n = Platform.n_pes platform in
  let transactions = Schedule.transactions schedule in
  let books (tr : Schedule.transaction) = not (tr.finish <= tr.start) in
  let total = ref 0 in
  for j = 0 to Array.length transactions - 1 do
    let tr = transactions.(j) in
    if books tr then total := !total + Int.max 0 (List.length tr.route - 1)
  done;
  let b = bookings !total in
  let count = ref 0 in
  for j = 0 to Array.length transactions - 1 do
    let tr = transactions.(j) in
    if books tr then
      match tr.route with
      | [] -> ()
      | a :: rest -> count := book_channels b n !count tr a rest
  done;
  overlap_scan ~n_res:(n * n) b !count (fun channel first second ->
      add
        (Diagnostic.error ~rule:"sched/link-overlap"
           (Diagnostic.Link { Noc_noc.Routing.from_node = channel / n; to_node = channel mod n })
           "transactions %d and %d reserve this channel concurrently" first second))

(* ------------------------------------------------------------------ *)
(* Precedence and timing windows                                       *)

let precedence ctg schedule add =
  let transactions = Schedule.transactions schedule in
  for j = 0 to Array.length transactions - 1 do
    let (tr : Schedule.transaction) = transactions.(j) in
    let e = Ctg.edge ctg tr.edge in
    let sender = Schedule.placement schedule e.src in
    let receiver = Schedule.placement schedule e.dst in
    if tr.start < sender.finish -. eps then
      add
        (Diagnostic.error ~rule:"sched/precedence" (Diagnostic.Edge tr.edge)
           "departs at %g before task %d finishes at %g" tr.start e.src sender.finish);
    if receiver.start < tr.finish -. eps then
      add
        (Diagnostic.error ~rule:"sched/precedence" (Diagnostic.Edge tr.edge)
           "task %d starts at %g before its data arrives at %g" e.dst receiver.start
           tr.finish)
  done

let timing_windows ctg schedule add =
  let tasks = Ctg.tasks ctg in
  for i = 0 to Array.length tasks - 1 do
    let (t : Task.t) = tasks.(i) in
    let p = Schedule.placement schedule t.id in
    (match t.release with
    | Some release when p.start < release -. eps ->
      add
        (Diagnostic.error ~rule:"sched/release" (Diagnostic.Task t.id)
           "starts at %g before its release %g" p.start release)
    | Some _ | None -> ());
    match t.deadline with
    | Some deadline when p.finish > deadline +. eps ->
      add
        (Diagnostic.error ~rule:"sched/deadline" (Diagnostic.Task t.id)
           "finishes at %g, deadline is %g" p.finish deadline)
    | Some _ | None -> ()
  done

(* The pairwise suite, run once every window is well formed. *)
let pairwise platform ctg schedule add =
  pe_exclusion platform schedule add;
  link_exclusion platform schedule add;
  precedence ctg schedule add;
  timing_windows ctg schedule add

(* ------------------------------------------------------------------ *)

let check ?claimed_energy platform ctg schedule =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  let n_tasks = Ctg.n_tasks ctg and n_edges = Ctg.n_edges ctg in
  if Schedule.n_tasks schedule <> n_tasks then
    add
      (Diagnostic.error ~rule:"sched/task-count" Diagnostic.Nowhere
         "schedule places %d tasks, graph has %d" (Schedule.n_tasks schedule) n_tasks)
  else if Array.length (Schedule.transactions schedule) <> n_edges then
    add
      (Diagnostic.error ~rule:"sched/transaction-count" Diagnostic.Nowhere
         "schedule carries %d transactions, graph has %d arcs"
         (Array.length (Schedule.transactions schedule))
         n_edges)
  else begin
    placement_checks platform ctg (Schedule.placements schedule) add;
    transaction_checks platform ctg schedule add;
    (* Only reason about exclusion and ordering of well-formed windows. *)
    if !acc = [] then begin
      pairwise platform ctg schedule add;
      match claimed_energy with
      | None -> ()
      | Some claimed ->
        let derived = energy platform ctg schedule in
        if Float.abs (claimed -. derived) > eps *. Float.max 1. (Float.abs claimed)
        then
          add
            (Diagnostic.warning ~rule:"sched/energy-mismatch" Diagnostic.Nowhere
               "claimed total energy %g, Eq. 3 over the recorded routes gives %g"
               claimed derived)
    end
  end;
  Diagnostic.sort (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* DVFS-scaled schedules                                               *)

(* Re-verification of a downclocked schedule against its unscaled base.
   Deliberately independent of [noc_dvfs]: the V/f ladder arrives as a
   raw ratio array and the annotations as the [Schedule_io] records, so
   a bug in the reclamation pass cannot leak into its own audit. *)

let rec same_route a b =
  match (a, b) with
  | [], [] -> true
  | (x : int) :: a, y :: b -> x = y && same_route a b
  | [], _ :: _ | _ :: _, [] -> false

(* Field-by-field equality; floats compare as IEEE numbers, so a [nan]
   window never equals itself. *)
let same_transaction (a : Schedule.transaction) (b : Schedule.transaction) =
  a.edge = b.edge && a.src_pe = b.src_pe && a.dst_pe = b.dst_pe
  && same_route a.route b.route
  && a.start = b.start && a.finish = b.finish

let check_scaled ~ratios ~annotations ~base platform ctg scaled =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  let n_tasks = Ctg.n_tasks ctg and n_edges = Ctg.n_edges ctg in
  let n_levels = Array.length ratios in
  (* The ladder itself must be a descending frequency ladder anchored at
     f_max, or no per-task statement below means anything. *)
  if n_levels = 0 then
    add
      (Diagnostic.error ~rule:"dvfs/vf-table" Diagnostic.Nowhere "empty V/f ladder")
  else begin
    if ratios.(0) <> 1. then
      add
        (Diagnostic.error ~rule:"dvfs/vf-table" Diagnostic.Nowhere
           "level 0 runs at %g of f_max, must be 1" ratios.(0));
    for l = 0 to n_levels - 1 do
      let r = ratios.(l) in
      if not (Float.is_finite r && r > 0. && r <= 1.) then
        add
          (Diagnostic.error ~rule:"dvfs/vf-table" Diagnostic.Nowhere
             "level %d ratio %g is not in (0, 1]" l r)
      else if l > 0 && r >= ratios.(l - 1) then
        add
          (Diagnostic.error ~rule:"dvfs/vf-table" Diagnostic.Nowhere
             "levels must descend strictly: level %d ratio %g >= level %d ratio %g"
             l r (l - 1) ratios.(l - 1))
    done
  end;
  if Schedule.n_tasks scaled <> n_tasks then
    add
      (Diagnostic.error ~rule:"sched/task-count" Diagnostic.Nowhere
         "schedule places %d tasks, graph has %d" (Schedule.n_tasks scaled) n_tasks)
  else if Array.length (Schedule.transactions scaled) <> n_edges then
    add
      (Diagnostic.error ~rule:"sched/transaction-count" Diagnostic.Nowhere
         "schedule carries %d transactions, graph has %d arcs"
         (Array.length (Schedule.transactions scaled))
         n_edges)
  else if Schedule.n_tasks base <> n_tasks
          || Array.length (Schedule.transactions base) <> n_edges then
    add
      (Diagnostic.error ~rule:"dvfs/base-mismatch" Diagnostic.Nowhere
         "base schedule does not cover the graph")
  else if Array.length annotations <> n_tasks then
    add
      (Diagnostic.error ~rule:"dvfs/annotation" Diagnostic.Nowhere
         "%d annotations for %d tasks" (Array.length annotations) n_tasks);
  if !acc <> [] then Diagnostic.sort (List.rev !acc)
  else begin
    (* Per-task rules: the annotation names a real level, the frequency
       matches that level, the placement is frozen apart from its
       stretched finish, and the recorded energy is base × r². Each
       task's expected scaled duration, slowdown × base duration, goes
       into [durations] for the placement checks below. *)
    let durations = Array.make n_tasks 0. in
    for i = 0 to n_tasks - 1 do
      let (a : Noc_sched.Schedule_io.annotation) = annotations.(i) in
      let bp = Schedule.placement base i in
      let slowdown =
        if a.level >= 0 && a.level < n_levels then 1. /. ratios.(a.level) else 1.
      in
      durations.(i) <- (bp.finish -. bp.start) *. slowdown;
      if a.task <> i then
        add
          (Diagnostic.error ~rule:"dvfs/annotation" (Diagnostic.Task i)
             "annotation %d names task %d" i a.task)
      else if a.level < 0 || a.level >= n_levels then
        add
          (Diagnostic.error ~rule:"dvfs/level-range" (Diagnostic.Task i)
             "level %d of a %d-level ladder" a.level n_levels)
      else begin
        if Float.abs (a.freq -. ratios.(a.level)) > eps then
          add
            (Diagnostic.error ~rule:"dvfs/level-range" (Diagnostic.Task i)
               "annotated frequency %g, level %d of the ladder runs at %g" a.freq
               a.level ratios.(a.level));
        let sp = Schedule.placement scaled i in
        if sp.pe <> bp.pe then
          add
            (Diagnostic.error ~rule:"dvfs/start-shift" (Diagnostic.Task i)
               "migrated from pe %d to pe %d; downclocking moves nothing" bp.pe sp.pe)
        else if sp.start <> bp.start then
          add
            (Diagnostic.error ~rule:"dvfs/start-shift" (Diagnostic.Task i)
               "start moved from %g to %g; downclocking never moves a start" bp.start
               sp.start)
        else if sp.finish < bp.finish -. eps then
          add
            (Diagnostic.error ~rule:"dvfs/window" (Diagnostic.Task i)
               "scaled finish %g precedes the base finish %g: the base window must \
                be contained in the scaled one"
               sp.finish bp.finish);
        let expected =
          (Ctg.task ctg i).Task.energies.(bp.pe) *. ratios.(a.level) *. ratios.(a.level)
        in
        if Float.abs (a.energy -. expected) > eps *. Float.max 1. expected then
          add
            (Diagnostic.error ~rule:"dvfs/energy" (Diagnostic.Task i)
               "annotated energy %g, base x (f/f_max)^2 gives %g" a.energy expected)
      end
    done;
    (* Communication windows are frozen: every transaction must survive
       bit-identically (route included). *)
    let base_transactions = Schedule.transactions base in
    for e = 0 to n_edges - 1 do
      if not (same_transaction (Schedule.transaction scaled e) base_transactions.(e)) then
        add
          (Diagnostic.error ~rule:"dvfs/comm-frozen" (Diagnostic.Edge e)
             "transaction differs from the base schedule; downclocking never \
              shifts a communication window")
    done;
    (* Scaled duration consistency, then the standard pairwise suite on
       the scaled timeline — exclusions, precedence and the release/
       deadline windows (the containment proof that stretching stayed
       inside the slack). *)
    placement_checks ~scaled:durations platform ctg (Schedule.placements scaled) add;
    transaction_checks platform ctg scaled add;
    if !acc = [] then begin
      pairwise platform ctg scaled add;
      (* Monotonicity: reclamation may only shed computation energy. *)
      let scaled_comp = ref 0. and base_comp = ref 0. in
      for i = 0 to n_tasks - 1 do
        scaled_comp := !scaled_comp +. annotations.(i).Noc_sched.Schedule_io.energy
      done;
      let tasks = Ctg.tasks ctg in
      for i = 0 to n_tasks - 1 do
        let (task : Task.t) = tasks.(i) in
        base_comp :=
          !base_comp +. task.energies.((Schedule.placement base task.id).Schedule.pe)
      done;
      let scaled_comp = !scaled_comp and base_comp = !base_comp in
      if scaled_comp > base_comp +. (eps *. Float.max 1. base_comp) then
        add
          (Diagnostic.error ~rule:"dvfs/energy-monotone" Diagnostic.Nowhere
             "scaled computation energy %g exceeds the unscaled %g" scaled_comp
             base_comp)
    end;
    Diagnostic.sort (List.rev !acc)
  end
