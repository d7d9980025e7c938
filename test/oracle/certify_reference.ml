(* Frozen copy of Noc_analysis.Certify as it stood before the
   certifier moved onto flat arrays: list-of-tuple overlap scans sorted
   with polymorphic compare, one Hashtbl per route walk and a
   structural [<>] on transactions in the scaled check. Kept verbatim
   below the module aliases; Noc_analysis.Certify must report the same
   diagnostics on every input. *)

module Diagnostic = Noc_analysis.Diagnostic

(* Implementation-independent re-verification of a schedule. This module
   intentionally re-derives every check from the model definitions
   instead of calling into Noc_sched.Validate: the two checkers share
   only the data types, so they can serve as differential oracles for
   each other (a bug in one is caught by disagreement with the other,
   exercised by the test suite over the golden corpus). *)

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
  let computation =
    Array.fold_left
      (fun acc (t : Task.t) ->
        acc +. t.energies.((Schedule.placement schedule t.id).Schedule.pe))
      0. (Ctg.tasks ctg)
  in
  let communication =
    Array.fold_left
      (fun acc (e : Edge.t) ->
        let tr = Schedule.transaction schedule e.id in
        acc
        +. Noc_noc.Energy_model.transfer_energy model ~n_hops:(hop_count tr.route)
             ~bits:e.volume)
      0. (Ctg.edges ctg)
  in
  computation +. communication

(* ------------------------------------------------------------------ *)
(* Per-element checks                                                  *)

(* [expected_duration] defaults to the cost table; the scaled-schedule
   checker substitutes slowdown × base duration (rule dvfs/duration). *)
let placement_checks ?expected_duration platform ctg add =
  let n_pes = Platform.n_pes platform in
  let expected_duration =
    match expected_duration with
    | Some f -> f
    | None ->
      fun (p : Schedule.placement) ->
        ("sched/duration", "cost table", (Ctg.task ctg p.task).Task.exec_times.(p.pe))
  in
  fun (p : Schedule.placement) ->
    if p.pe < 0 || p.pe >= n_pes then
      add
        (Diagnostic.error ~rule:"sched/pe-range" (Diagnostic.Task p.task)
           "placed on pe %d of a %d-PE platform" p.pe n_pes)
    else begin
      if p.start < -.eps || p.finish < p.start -. eps then
        add
          (Diagnostic.error ~rule:"sched/time-window" (Diagnostic.Task p.task)
             "window [%g, %g) is not a forward interval from time 0" p.start p.finish);
      let rule, source, expected = expected_duration p in
      if Float.abs (p.finish -. p.start -. expected) > eps then
        add
          (Diagnostic.error ~rule (Diagnostic.Task p.task)
             "runs for %g on pe %d, %s says %g" (p.finish -. p.start) p.pe source
             expected)
    end

let route_walk_checks platform add (tr : Schedule.transaction) =
  let topology = Platform.topology platform in
  let n = Platform.n_pes platform in
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        add (Diagnostic.error ~rule:"sched/route-walk" (Diagnostic.Edge tr.edge) "%s" msg))
      fmt
  in
  if tr.src_pe = tr.dst_pe then begin
    (* Same-tile transfers use no network; they may record either no
       route at all or the single shared tile. *)
    match tr.route with
    | [] -> ()
    | [ p ] when p = tr.src_pe -> ()
    | [ p ] -> bad "same-tile route names tile %d, task runs on tile %d" p tr.src_pe
    | _ :: _ :: _ -> bad "same-tile transfer records a multi-hop route"
  end
  else
    match tr.route with
    | [] | [ _ ] -> bad "distinct tiles %d and %d need a multi-hop route" tr.src_pe tr.dst_pe
    | first :: _ :: _ as route ->
      if List.exists (fun p -> p < 0 || p >= n) route then
        bad "route leaves the chip (a node is outside 0..%d)" (n - 1)
      else if first <> tr.src_pe then bad "route starts at tile %d, sender sits on %d" first tr.src_pe
      else if last route <> tr.dst_pe then
        bad "route ends at tile %d, receiver sits on %d" (last route) tr.dst_pe
      else begin
        let seen = Hashtbl.create 8 in
        let rec walk = function
          | a :: (b :: _ as rest) ->
            if not (Topology.are_neighbours topology a b) then
              bad "route steps %d -> %d without a physical link" a b
            else if Hashtbl.mem seen (a, b) then
              bad "route reserves channel %d->%d twice" a b
            else begin
              Hashtbl.add seen (a, b) ();
              walk rest
            end
          | [ _ ] | [] -> ()
        in
        walk route
      end

let transaction_checks platform ctg schedule add =
  let bandwidth = Platform.link_bandwidth platform in
  let latency = Platform.router_latency platform in
  fun (tr : Schedule.transaction) ->
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
    route_walk_checks platform add tr;
    let expected =
      match hop_count tr.route with
      | 0 -> 0.
      | h -> (e.volume /. bandwidth) +. (float_of_int (h - 1) *. latency)
    in
    if Float.abs (tr.finish -. tr.start -. expected) > eps then
      add
        (Diagnostic.error ~rule:"sched/duration" (Diagnostic.Edge tr.edge)
           "occupies its route for %g; %g bits over a %d-router route take %g"
           (tr.finish -. tr.start) e.volume (hop_count tr.route) expected)

(* ------------------------------------------------------------------ *)
(* Pairwise exclusion                                                  *)

(* Both exclusions reduce to the same question: do two half-open windows
   booked on one resource overlap? Flatten every booking to a
   (resource, start, finish, owner) tuple, sort, and compare neighbours
   within each resource run. *)
let overlap_scan bookings report =
  let sorted =
    List.sort
      (fun (r1, s1, _, o1) (r2, s2, _, o2) ->
        let c = compare r1 r2 in
        if c <> 0 then c
        else
          let c = Float.compare s1 s2 in
          if c <> 0 then c else compare o1 o2)
      bookings
  in
  (* Within one resource, carry the booking that reaches furthest so a
     long window is compared against every later start. *)
  let rec scan ((r1, _, f1, o1) as cur) = function
    | [] -> ()
    | ((r2, s2, f2, o2) as next) :: tail ->
      if r1 <> r2 then scan next tail
      else begin
        if s2 < f1 -. eps then report r1 o1 o2;
        scan (if f2 > f1 then next else cur) tail
      end
  in
  match sorted with [] -> () | first :: rest -> scan first rest

let pe_exclusion schedule add =
  let bookings =
    Array.to_list (Schedule.placements schedule)
    |> List.filter_map (fun (p : Schedule.placement) ->
           if p.finish > p.start then Some (p.pe, p.start, p.finish, p.task) else None)
  in
  overlap_scan bookings (fun pe a b ->
      add
        (Diagnostic.error ~rule:"sched/pe-overlap" (Diagnostic.Pe pe)
           "tasks %d and %d run concurrently" a b))

let link_exclusion schedule add =
  let bookings =
    Array.to_list (Schedule.transactions schedule)
    |> List.concat_map (fun (tr : Schedule.transaction) ->
           if tr.finish <= tr.start then []
           else
             let rec channels = function
               | a :: (b :: _ as rest) -> ((a, b), tr.start, tr.finish, tr.edge) :: channels rest
               | [ _ ] | [] -> []
             in
             channels tr.route)
  in
  overlap_scan bookings (fun (from_node, to_node) a b ->
      add
        (Diagnostic.error ~rule:"sched/link-overlap"
           (Diagnostic.Link { Noc_noc.Routing.from_node; to_node })
           "transactions %d and %d reserve this channel concurrently" a b))

(* ------------------------------------------------------------------ *)
(* Precedence and timing windows                                       *)

let precedence ctg schedule add =
  Array.iter
    (fun (tr : Schedule.transaction) ->
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
             tr.finish))
    (Schedule.transactions schedule)

let timing_windows ctg schedule add =
  Array.iter
    (fun (t : Task.t) ->
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
      | Some _ | None -> ())
    (Ctg.tasks ctg)

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
    Array.iter (placement_checks platform ctg add) (Schedule.placements schedule);
    Array.iter
      (transaction_checks platform ctg schedule add)
      (Schedule.transactions schedule);
    (* Only reason about exclusion and ordering of well-formed windows. *)
    if !acc = [] then begin
      pe_exclusion schedule add;
      link_exclusion schedule add;
      precedence ctg schedule add;
      timing_windows ctg schedule add;
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
    Array.iteri
      (fun l r ->
        if not (Float.is_finite r && r > 0. && r <= 1.) then
          add
            (Diagnostic.error ~rule:"dvfs/vf-table" Diagnostic.Nowhere
               "level %d ratio %g is not in (0, 1]" l r)
        else if l > 0 && r >= ratios.(l - 1) then
          add
            (Diagnostic.error ~rule:"dvfs/vf-table" Diagnostic.Nowhere
               "levels must descend strictly: level %d ratio %g >= level %d ratio %g"
               l r (l - 1) ratios.(l - 1)))
      ratios
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
       stretched finish, and the recorded energy is base × r². *)
    Array.iteri
      (fun i (a : Noc_sched.Schedule_io.annotation) ->
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
          let bp = Schedule.placement base i and sp = Schedule.placement scaled i in
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
            (Ctg.task ctg i).Task.energies.(bp.pe)
            *. ratios.(a.level) *. ratios.(a.level)
          in
          if Float.abs (a.energy -. expected) > eps *. Float.max 1. expected then
            add
              (Diagnostic.error ~rule:"dvfs/energy" (Diagnostic.Task i)
                 "annotated energy %g, base x (f/f_max)^2 gives %g" a.energy expected)
        end)
      annotations;
    (* Communication windows are frozen: every transaction must survive
       bit-identically (route included). *)
    Array.iteri
      (fun e (bt : Schedule.transaction) ->
        let st = Schedule.transaction scaled e in
        if st <> bt then
          add
            (Diagnostic.error ~rule:"dvfs/comm-frozen" (Diagnostic.Edge e)
               "transaction differs from the base schedule; downclocking never \
                shifts a communication window"))
      (Schedule.transactions base);
    (* Scaled duration consistency, then the standard pairwise suite on
       the scaled timeline — exclusions, precedence and the release/
       deadline windows (the containment proof that stretching stayed
       inside the slack). *)
    let expected_duration (p : Schedule.placement) =
      let a = annotations.(p.task) in
      let bp = Schedule.placement base p.task in
      let slowdown =
        if a.level >= 0 && a.level < n_levels then 1. /. ratios.(a.level) else 1.
      in
      ("dvfs/duration", "level x base duration", (bp.finish -. bp.start) *. slowdown)
    in
    Array.iter
      (placement_checks ~expected_duration platform ctg add)
      (Schedule.placements scaled);
    Array.iter
      (transaction_checks platform ctg scaled add)
      (Schedule.transactions scaled);
    if !acc = [] then begin
      pe_exclusion scaled add;
      link_exclusion scaled add;
      precedence ctg scaled add;
      timing_windows ctg scaled add;
      (* Monotonicity: reclamation may only shed computation energy. *)
      let scaled_comp =
        Array.fold_left
          (fun t (a : Noc_sched.Schedule_io.annotation) -> t +. a.energy)
          0. annotations
      in
      let base_comp =
        Array.fold_left
          (fun t (task : Task.t) ->
            t +. task.energies.((Schedule.placement base task.id).Schedule.pe))
          0. (Ctg.tasks ctg)
      in
      if scaled_comp > base_comp +. (eps *. Float.max 1. base_comp) then
        add
          (Diagnostic.error ~rule:"dvfs/energy-monotone" Diagnostic.Nowhere
             "scaled computation energy %g exceeds the unscaled %g" scaled_comp
             base_comp)
    end;
    Diagnostic.sort (List.rev !acc)
  end
