(* Differential tests of the verification tail. [Certify.check],
   [Certify.check_scaled] and [Executor.run] run on flat arrays; their
   frozen list-based copies in the oracle library
   ([Noc_oracle.Certify_reference], [Noc_oracle.Executor_reference])
   are the specification. The certifier must return the same
   diagnostics on the golden corpus and on a mutation corpus that fires
   every sched/* and dvfs/* rule; the executor the same outcome, bit
   for bit, and the same sim.* counter totals. The three stages also
   keep an allocation budget per task. *)

module Certify = Noc_analysis.Certify
module Certify_reference = Noc_oracle.Certify_reference
module Diagnostic = Noc_analysis.Diagnostic
module Executor = Noc_sim.Executor
module Executor_reference = Noc_oracle.Executor_reference
module Schedule = Noc_sched.Schedule
module Schedule_io = Noc_sched.Schedule_io
module Category = Noc_tgff.Category
module Ctg = Noc_ctg.Ctg
module Task = Noc_ctg.Task
module Edge = Noc_ctg.Edge
module Fault = Noc_fault.Fault
module Fault_set = Noc_fault.Fault_set
module Counters = Noc_obs.Counters
module Reclaim = Noc_dvfs.Reclaim
module Vf_table = Noc_dvfs.Vf_table

module Rules = Set.Make (String)

let show d = Format.asprintf "%a" Diagnostic.pp d

(* Diagnostics compare in full: rule, severity, location and message. *)
let same_diagnostics label expected actual =
  if expected <> actual then
    Alcotest.(check (list string)) label (List.map show expected) (List.map show actual)

(* Every rule the compared diagnostics fired, across a corpus. *)
let fired = ref Rules.empty

let note diagnostics =
  List.iter (fun (d : Diagnostic.t) -> fired := Rules.add d.rule !fired) diagnostics

let diff_check ?claimed_energy label platform ctg schedule =
  let expected = Certify_reference.check ?claimed_energy platform ctg schedule in
  let actual = Certify.check ?claimed_energy platform ctg schedule in
  same_diagnostics label expected actual;
  note actual

let diff_check_scaled label ~ratios ~annotations ~base platform ctg scaled =
  let expected =
    Certify_reference.check_scaled ~ratios ~annotations ~base platform ctg scaled
  in
  let actual = Certify.check_scaled ~ratios ~annotations ~base platform ctg scaled in
  same_diagnostics label expected actual;
  note actual

let require_fired label rules =
  let missing = List.filter (fun r -> not (Rules.mem r !fired)) rules in
  if missing <> [] then
    Alcotest.failf "%s: rules never fired: %s" label (String.concat ", " missing)

(* ------------------------------------------------------------------ *)
(* The golden corpus of test_oracle.ml: 3x3 heterogeneous platform,
   24-task graphs, 50 seeds, four schedulers, and EDF under the
   fixed-delay model, whose transactions overlap on links. *)

let corpus_platform = Noc_noc.Platform.heterogeneous_mesh ~seed:3 ~cols:3 ~rows:3 ()

let corpus_params = { Noc_tgff.Params.default with n_tasks = 24; max_layer_width = 5 }

let corpus_ctg seed =
  Noc_tgff.Generate.generate ~params:corpus_params ~platform:corpus_platform ~seed

let corpus_schedulers =
  [
    ("EAS", fun ctg -> (Noc_eas.Eas.schedule corpus_platform ctg).Noc_eas.Eas.schedule);
    ("EDF", fun ctg -> Noc_edf.Edf.schedule corpus_platform ctg);
    ("DLS", fun ctg -> Noc_baselines.Dls.schedule corpus_platform ctg);
    ("energy-greedy", fun ctg -> Noc_baselines.Energy_greedy.schedule corpus_platform ctg);
    ( "EDF fixed-delay",
      fun ctg ->
        Noc_edf.Edf.schedule ~comm_model:Noc_sched.Comm_sched.Fixed_delay corpus_platform ctg
    );
  ]

let test_golden_corpus () =
  for seed = 0 to 49 do
    let ctg = corpus_ctg seed in
    List.iter
      (fun (name, scheduler) ->
        let schedule = scheduler ctg in
        let metrics = Noc_sched.Metrics.compute corpus_platform ctg schedule in
        let label = Printf.sprintf "%s seed %d" name seed in
        diff_check ~claimed_energy:metrics.Noc_sched.Metrics.total_energy label
          corpus_platform ctg schedule;
        diff_check (label ^ " unclaimed") corpus_platform ctg schedule)
      corpus_schedulers
  done;
  require_fired "golden corpus" [ "sched/link-overlap"; "sched/deadline" ]

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)

let with_placement schedule i f =
  let placements = Array.copy (Schedule.placements schedule) in
  placements.(i) <- f placements.(i);
  Schedule.make ~placements ~transactions:(Schedule.transactions schedule)

let with_transaction schedule e f =
  let transactions = Array.copy (Schedule.transactions schedule) in
  transactions.(e) <- f transactions.(e);
  Schedule.make ~placements:(Schedule.placements schedule) ~transactions

let with_task ctg i f =
  let tasks = Array.copy (Ctg.tasks ctg) in
  tasks.(i) <- f tasks.(i);
  Ctg.make_exn ~tasks ~edges:(Ctg.edges ctg)

let first_transaction schedule pred =
  let found = ref None in
  Array.iter
    (fun (tr : Schedule.transaction) ->
      if !found = None && pred tr then found := Some tr)
    (Schedule.transactions schedule);
  !found

let multi_hop (tr : Schedule.transaction) = List.length tr.route >= 2
let channels route = Noc_noc.Routing.links_of_route route

(* Two transactions that reserve a common channel, if any. *)
let sharing_pair schedule =
  let trs = Schedule.transactions schedule in
  let found = ref None in
  Array.iter
    (fun (a : Schedule.transaction) ->
      Array.iter
        (fun (b : Schedule.transaction) ->
          if
            !found = None && a.edge < b.edge
            && List.exists (fun l -> List.mem l (channels b.route)) (channels a.route)
          then found := Some (a, b))
        trs)
    trs;
  !found

(* Two tasks on one PE, if any. *)
let pe_pair schedule =
  let ps = Schedule.placements schedule in
  let found = ref None in
  Array.iter
    (fun (a : Schedule.placement) ->
      Array.iter
        (fun (b : Schedule.placement) ->
          if !found = None && a.task < b.task && a.pe = b.pe then found := Some (a, b))
        ps)
    ps;
  !found

(* Named mutants of one (ctg, schedule): each is a graph, a schedule
   and a claimed energy to certify. *)
let mutants platform ctg schedule =
  let n = Noc_noc.Platform.n_pes platform in
  let topology = Noc_noc.Platform.topology platform in
  let placements = Schedule.placements schedule in
  let transactions = Schedule.transactions schedule in
  let m = ref [] in
  let add ?(ctg = ctg) ?claimed name s = m := (name, ctg, s, claimed) :: !m in
  let shift (p : Schedule.placement) d = { p with start = p.start +. d; finish = p.finish +. d } in
  add "task count"
    (Schedule.make
       ~placements:(Array.sub placements 0 (Array.length placements - 1))
       ~transactions);
  if Array.length transactions > 0 then
    add "transaction count"
      (Schedule.make ~placements
         ~transactions:(Array.sub transactions 0 (Array.length transactions - 1)));
  add "pe off the chip" (with_placement schedule 0 (fun p -> { p with pe = n }));
  add "negative pe" (with_placement schedule 1 (fun p -> { p with pe = -1 }));
  add "window before time 0" (with_placement schedule 0 (fun p -> shift p (-.p.finish -. 5.)));
  add "backward window" (with_placement schedule 2 (fun p -> { p with finish = p.start -. 1. }));
  add "task duration" (with_placement schedule 3 (fun p -> { p with finish = p.finish +. 1. }));
  add "nan task window"
    (with_placement schedule 4 (fun p -> { p with start = nan; finish = nan }));
  add "shifted task" (with_placement schedule 5 (fun p -> shift p 1e4));
  add "claimed energy"
    ~claimed:(Certify.energy platform ctg schedule +. 1.)
    schedule;
  (match pe_pair schedule with
  | Some (a, b) ->
    add "pe overlap"
      (with_placement schedule b.task (fun p ->
           { p with start = a.start; finish = a.start +. (p.finish -. p.start) }));
    add "pe swap"
      (with_placement schedule a.task (fun p -> { p with pe = (p.pe + 1) mod n }))
  | None -> ());
  (match sharing_pair schedule with
  | Some (a, b) ->
    add "link overlap"
      (with_transaction schedule b.edge (fun tr ->
           { tr with start = a.start; finish = a.start +. (tr.finish -. tr.start) }));
    add "link overlap, nan start"
      (with_transaction
         (with_transaction schedule b.edge (fun tr -> { tr with start = nan }))
         a.edge
         (fun tr -> { tr with finish = nan }))
  | None -> ());
  (match first_transaction schedule multi_hop with
  | Some tr ->
    let e = tr.edge in
    let route f = with_transaction schedule e (fun tr -> { tr with route = f tr.route }) in
    let first = List.hd tr.route in
    let next = List.nth tr.route 1 in
    add "route off the chip" (route (fun r -> r @ [ n ]));
    add "route starts elsewhere" (route (fun r -> next :: r));
    add "route ends elsewhere" (route (fun r -> r @ [ first ]));
    add "route back and forth" (route (fun r -> first :: next :: r));
    add "route jumps"
      (route (fun r ->
           let far =
             List.find (fun p -> p <> first && not (Noc_noc.Topology.are_neighbours topology first p))
               (List.init n Fun.id)
           in
           first :: far :: List.tl r));
    add "route too short" (route (fun _ -> [ first ]));
    add "transaction duration"
      (with_transaction schedule e (fun tr -> { tr with finish = tr.finish +. 1. }));
    add "transaction departs early"
      (with_transaction schedule e (fun tr ->
           { tr with start = tr.start -. 1e4; finish = tr.finish -. 1e4 }));
    add "transaction endpoint"
      (with_transaction schedule e (fun tr -> { tr with src_pe = tr.dst_pe }))
  | None -> ());
  (match first_transaction schedule (fun tr -> tr.src_pe = tr.dst_pe) with
  | Some tr ->
    let other = (tr.src_pe + 1) mod n in
    let route r = with_transaction schedule tr.edge (fun tr -> { tr with route = r }) in
    add "same-tile route names another tile" (route [ other ]);
    add "same-tile multi-hop route" (route [ tr.src_pe; other ]);
    add "same-tile route named" (route [ tr.src_pe ])
  | None -> ());
  let p = placements.(Array.length placements - 1) in
  add "release after start"
    ~ctg:(with_task ctg p.task (fun t -> { t with Task.release = Some (p.start +. 1.) }))
    schedule;
  add "deadline before finish"
    ~ctg:(with_task ctg p.task (fun t -> { t with Task.deadline = Some (p.finish -. 1.) }))
    schedule;
  (* Random window shifts that keep durations: overlaps of every kind. *)
  let rng = Noc_util.Prng.create ~seed:(Array.length placements) in
  let shifted = ref schedule in
  for _ = 1 to 6 do
    let i = Noc_util.Prng.int rng ~bound:(Array.length placements) in
    let d = Noc_util.Prng.float_in rng ~min:(-20.) ~max:20. in
    shifted := with_placement !shifted i (fun p -> shift p d);
    if Array.length transactions > 0 then begin
      let e = Noc_util.Prng.int rng ~bound:(Array.length transactions) in
      let d = Noc_util.Prng.float_in rng ~min:(-20.) ~max:20. in
      shifted :=
        with_transaction !shifted e (fun tr ->
            { tr with start = tr.start +. d; finish = tr.finish +. d })
    end
  done;
  add "random shifts" !shifted;
  List.rev !m

let test_mutation_corpus () =
  fired := Rules.empty;
  for seed = 0 to 9 do
    let ctg = corpus_ctg seed in
    List.iter
      (fun (name, scheduler) ->
        let schedule = scheduler ctg in
        List.iter
          (fun (mutant, ctg, s, claimed_energy) ->
            diff_check ?claimed_energy
              (Printf.sprintf "%s seed %d: %s" name seed mutant)
              corpus_platform ctg s)
          (mutants corpus_platform ctg schedule))
      corpus_schedulers
  done;
  require_fired "mutation corpus"
    [
      "sched/task-count";
      "sched/transaction-count";
      "sched/pe-range";
      "sched/time-window";
      "sched/duration";
      "sched/endpoint-pe";
      "sched/route-walk";
      "sched/pe-overlap";
      "sched/link-overlap";
      "sched/precedence";
      "sched/release";
      "sched/deadline";
      "sched/energy-mismatch";
    ]

(* ------------------------------------------------------------------ *)
(* Category I/II instances, scheduled once                              *)

let platform = Category.platform

let suite_schedules =
  lazy
    (List.concat_map
       (fun kind ->
         List.init 10 (fun index ->
             let ctg = Category.benchmark kind ~index in
             let schedule = (Noc_eas.Eas.schedule ~jobs:1 platform ctg).Noc_eas.Eas.schedule in
             let name =
               Printf.sprintf "%s %d"
                 (match kind with
                 | Category.Category_i -> "I"
                 | Category.Category_ii -> "II"
                 | Category.Category_iii -> "III")
                 index
             in
             (name, ctg, schedule)))
       [ Category.Category_i; Category.Category_ii ])

let ratios = Vf_table.ratios Vf_table.default

let test_scaled_suite () =
  List.iter
    (fun (name, ctg, base) ->
      let r = Reclaim.run ~table:Vf_table.default ctg base in
      diff_check_scaled name ~ratios ~annotations:r.Reclaim.annotations ~base platform ctg
        r.Reclaim.schedule)
    (Lazy.force suite_schedules)

(* Named mutants of a reclaim: a ladder, annotations, a base and a
   scaled schedule to certify. *)
let scaled_mutants base (r : Reclaim.result) =
  let annotations = r.annotations and scaled = r.schedule in
  let n_levels = Array.length ratios in
  let m = ref [] in
  let add ?(ratios = ratios) ?(annotations = annotations) ?(base = base) name s =
    m := (name, ratios, annotations, base, s) :: !m
  in
  let annotate i f =
    let a = Array.copy annotations in
    a.(i) <- f a.(i);
    a
  in
  (* A downclocked task, so that scaled and base windows differ. *)
  let slow =
    match Array.find_opt (fun (a : Schedule_io.annotation) -> a.level > 0) annotations with
    | Some a -> a.task
    | None -> 0
  in
  add "empty ladder" ~ratios:[||] scaled;
  add "ladder not anchored" ~ratios:(Array.map (fun r -> r *. 0.9) ratios) scaled;
  add "ladder ascends" ~ratios:(Array.init n_levels (fun l -> if l = 0 then 1. else 0.5)) scaled;
  add "ladder off (0, 1]" ~ratios:(Array.append ratios [| 1.5; nan |]) scaled;
  add "annotation count" ~annotations:(Array.sub annotations 0 (Array.length annotations - 1))
    scaled;
  add "base short"
    ~base:
      (Schedule.make
         ~placements:(Array.sub (Schedule.placements base) 0 (Schedule.n_tasks base - 1))
         ~transactions:(Schedule.transactions base))
    scaled;
  add "annotation names another task" ~annotations:(annotate 1 (fun a -> { a with task = 0 }))
    scaled;
  add "level off the ladder" ~annotations:(annotate slow (fun a -> { a with level = n_levels }))
    scaled;
  add "negative level" ~annotations:(annotate 2 (fun a -> { a with level = -1 })) scaled;
  add "frequency off its level"
    ~annotations:(annotate 3 (fun a -> { a with freq = a.freq *. 0.5 }))
    scaled;
  add "energy off" ~annotations:(annotate 4 (fun a -> { a with energy = a.energy +. 1. })) scaled;
  add "migrated" (with_placement scaled 5 (fun p -> { p with pe = (p.pe + 1) mod Noc_noc.Platform.n_pes platform }));
  add "start moved"
    (with_placement scaled slow (fun p -> { p with start = p.start +. 1.; finish = p.finish +. 1. }));
  add "finish before base" (with_placement scaled slow (fun p -> { p with finish = p.start }));
  add "scaled duration" (with_placement scaled slow (fun p -> { p with finish = p.finish +. 1. }));
  (match first_transaction scaled multi_hop with
  | Some tr ->
    add "window moved"
      (with_transaction scaled tr.edge (fun tr ->
           { tr with start = tr.start +. 1.; finish = tr.finish +. 1. }));
    add "route changed"
      (with_transaction scaled tr.edge (fun tr -> { tr with route = List.rev tr.route }));
    let nan_base = with_transaction base tr.edge (fun tr -> { tr with start = nan }) in
    add "nan window on both" ~base:nan_base
      (with_transaction scaled tr.edge (fun _ -> Schedule.transaction nan_base tr.edge))
  | None -> ());
  List.rev !m

(* A two-task graph whose annotations each sit just inside the per-task
   energy tolerance: only the monotonicity rule can see the excess. *)
let test_energy_monotone_fixture () =
  let platform = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:1 in
  let ctg =
    Ctg.make_exn
      ~tasks:
        (Array.init 2 (fun id ->
             Task.make ~id ~exec_times:[| 1.; 1. |] ~energies:[| 0.1; 0.1 |] ()))
      ~edges:[||]
  in
  let base =
    Schedule.make
      ~placements:
        (Array.init 2 (fun task -> { Schedule.task; pe = task; start = 0.; finish = 1. }))
      ~transactions:[||]
  in
  let annotations =
    Array.init 2 (fun task -> { Schedule_io.task; level = 0; freq = 1.; energy = 0.1 +. 9e-7 })
  in
  fired := Rules.empty;
  diff_check_scaled "monotone" ~ratios ~annotations ~base platform ctg base;
  require_fired "energy-monotone fixture" [ "dvfs/energy-monotone" ]

let test_scaled_mutations () =
  fired := Rules.empty;
  List.iteri
    (fun k (name, ctg, base) ->
      if k mod 5 = 0 then begin
        let r = Reclaim.run ~table:Vf_table.default ctg base in
        List.iter
          (fun (mutant, ratios, annotations, base, scaled) ->
            diff_check_scaled (name ^ ": " ^ mutant) ~ratios ~annotations ~base platform ctg
              scaled)
          (scaled_mutants base r)
      end)
    (Lazy.force suite_schedules);
  require_fired "scaled mutations"
    [
      "dvfs/vf-table";
      "dvfs/base-mismatch";
      "dvfs/annotation";
      "dvfs/level-range";
      "dvfs/start-shift";
      "dvfs/window";
      "dvfs/duration";
      "dvfs/comm-frozen";
      "dvfs/energy";
    ]

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)

(* An outcome as lines of text, floats as their bits, so that two
   outcomes are equal exactly when they are bit for bit. *)
let outcome_lines realised waiting_time edge_waiting lost_tasks deadline_misses =
  let bits = Int64.bits_of_float in
  let placements =
    Array.map
      (fun (p : Schedule.placement) ->
        Printf.sprintf "task %d pe %d start %Lx finish %Lx" p.task p.pe (bits p.start)
          (bits p.finish))
      (Schedule.placements realised)
  in
  let transactions =
    Array.map
      (fun (tr : Schedule.transaction) ->
        Printf.sprintf "edge %d %d->%d route %s start %Lx finish %Lx waited %Lx" tr.edge
          tr.src_pe tr.dst_pe
          (String.concat "," (List.map string_of_int tr.route))
          (bits tr.start) (bits tr.finish)
          (bits edge_waiting.(tr.edge)))
      (Schedule.transactions realised)
  in
  let ints l = String.concat "," (List.map string_of_int l) in
  Array.to_list placements @ Array.to_list transactions
  @ [
      Printf.sprintf "waiting time %Lx" (bits waiting_time);
      "lost " ^ ints lost_tasks;
      "misses " ^ ints deadline_misses;
    ]

(* Fails on the first line that differs. *)
let same_lines label expected actual =
  let rec go i = function
    | [], [] -> ()
    | e :: es, a :: rest ->
      if e <> a then Alcotest.failf "%s, line %d: expected %s, got %s" label i e a
      else go (i + 1) (es, rest)
    | _ -> Alcotest.failf "%s: %d lines expected, %d got" label (List.length expected)
             (List.length actual)
  in
  go 0 (expected, actual)

let sim_counters = [ "sim.events"; "sim.transactions_granted"; "sim.tasks_issued" ]

(* Runs [f] with counters on; returns its result and how far each
   sim.* counter moved. *)
let counted f =
  let counters = List.map Counters.counter sim_counters in
  Counters.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Counters.set_enabled false)
    (fun () ->
      let before = List.map Counters.value counters in
      let v = f () in
      (v, List.map2 (fun c b -> Counters.value c - b) counters before))

let diff_run label ~discipline ~faults platform ctg schedule =
  let reference_discipline =
    match (discipline : Executor.discipline) with
    | Time_triggered -> Executor_reference.Time_triggered
    | Self_timed -> Executor_reference.Self_timed
  in
  let (expected : Executor_reference.outcome), expected_counts =
    counted (fun () ->
        Executor_reference.run ~discipline:reference_discipline ~faults platform ctg schedule)
  in
  let (actual : Executor.outcome), actual_counts =
    counted (fun () -> Executor.run ~discipline ~faults platform ctg schedule)
  in
  same_lines label
    (outcome_lines expected.realised expected.waiting_time expected.edge_waiting
       expected.lost_tasks expected.deadline_misses)
    (outcome_lines actual.realised actual.waiting_time actual.edge_waiting actual.lost_tasks
       actual.deadline_misses);
  if expected_counts <> actual_counts then
    Alcotest.(check (list int)) (label ^ " sim counters") expected_counts actual_counts

(* The fault sets each replay runs under: none, a permanent PE fault
   from a third of the makespan, a permanent fault on the first channel
   a transaction reserves, and that channel down for a window. *)
let fault_sets schedule =
  let makespan = Schedule.makespan schedule in
  let link =
    match first_transaction schedule multi_hop with
    | Some tr -> List.hd (channels tr.route)
    | None -> { Noc_noc.Routing.from_node = 0; to_node = 1 }
  in
  let link_fault ?from_time ?until_time () =
    Fault.link ?from_time ?until_time ~from_node:link.from_node ~to_node:link.to_node ()
  in
  [
    ("no fault", Fault_set.empty);
    ("pe fault", Fault_set.of_list [ Fault.pe ~from_time:(makespan /. 3.) 5 () ]);
    ("link fault", Fault_set.of_list [ link_fault () ]);
    ( "transient fault",
      Fault_set.of_list
        [
          link_fault ~from_time:(makespan /. 5.) ~until_time:(makespan /. 2.) ();
          Fault.pe ~from_time:(makespan /. 4.) ~until_time:(makespan /. 3.) 2 ();
        ] );
  ]

let test_executor_suite () =
  List.iter
    (fun (name, ctg, schedule) ->
      List.iter
        (fun (dname, discipline) ->
          List.iter
            (fun (fname, faults) ->
              diff_run
                (Printf.sprintf "%s %s %s" name dname fname)
                ~discipline ~faults platform ctg schedule)
            (fault_sets schedule))
        [ ("time-triggered", Executor.Time_triggered); ("self-timed", Executor.Self_timed) ])
    (Lazy.force suite_schedules)

(* Fixed-delay schedules conflict on links, so their replays queue
   transactions behind each other: the pending order decides grants. *)
let test_executor_contention () =
  for seed = 0 to 9 do
    let ctg = corpus_ctg seed in
    let schedule =
      Noc_edf.Edf.schedule ~comm_model:Noc_sched.Comm_sched.Fixed_delay corpus_platform ctg
    in
    List.iter
      (fun (dname, discipline) ->
        List.iter
          (fun (fname, faults) ->
            diff_run
              (Printf.sprintf "fixed-delay seed %d %s %s" seed dname fname)
              ~discipline ~faults corpus_platform ctg schedule)
          (fault_sets schedule))
      [ ("time-triggered", Executor.Time_triggered); ("self-timed", Executor.Self_timed) ]
  done

(* Plans on a coarse grid: execution and transfer times in multiples
   of 5 and starts pushed back to the next multiple of 10. In a time-triggered replay PE heads then wait for
   their planned starts (the wake-ups a dispatch fixpoint pushes in
   each pass) and many events share a timestamp, so the queue's
   insertion order decides which runs first. *)
let gridded_plan seed =
  let ctg = corpus_ctg seed in
  let bandwidth = Noc_noc.Platform.link_bandwidth corpus_platform in
  let ctg =
    Ctg.make_exn
      ~tasks:
        (Array.map
           (fun (t : Task.t) ->
             { t with exec_times = Array.map (fun x -> 5. *. Float.max 1. (Float.round (x /. 5.))) t.exec_times })
           (Ctg.tasks ctg))
      ~edges:
        (Array.map
           (fun (e : Edge.t) ->
             { e with volume = 5. *. bandwidth *. Float.round (e.volume /. bandwidth /. 5.) })
           (Ctg.edges ctg))
  in
  let plan = Noc_edf.Edf.schedule corpus_platform ctg in
  let later x = 10. *. Float.ceil ((x +. 1.) /. 10.) in
  let placements =
    Array.map
      (fun (p : Schedule.placement) ->
        let start = later p.start in
        { p with start; finish = start +. (p.finish -. p.start) })
      (Schedule.placements plan)
  in
  let transactions =
    Array.map
      (fun (tr : Schedule.transaction) ->
        let start = later tr.start in
        { tr with start; finish = start +. (tr.finish -. tr.start) })
      (Schedule.transactions plan)
  in
  (ctg, Schedule.make ~placements ~transactions)

let test_executor_gridded () =
  for seed = 0 to 9 do
    let ctg, plan = gridded_plan seed in
    List.iter
      (fun (dname, discipline) ->
        List.iter
          (fun (fname, faults) ->
            diff_run
              (Printf.sprintf "gridded seed %d %s %s" seed dname fname)
              ~discipline ~faults corpus_platform ctg plan)
          (fault_sets plan))
      [ ("time-triggered", Executor.Time_triggered); ("self-timed", Executor.Self_timed) ]
  done

(* The executor's miss rule is the schedulers' ([List_sched.lateness]):
   a finish that lands exactly on the rounded [d +. 1e-9] is a miss for
   both, so a replay of a plan counts what the plan counted. *)
let test_miss_rule () =
  let d = 0.47001 in
  let finish = d +. 1e-9 in
  let platform = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:1 in
  let ctg =
    Ctg.make_exn
      ~tasks:[| Task.make ~id:0 ~exec_times:[| finish; finish |] ~energies:[| 1.; 1. |] ~deadline:d () |]
      ~edges:[||]
  in
  let schedule =
    Schedule.make ~placements:[| { Schedule.task = 0; pe = 0; start = 0.; finish } |]
      ~transactions:[||]
  in
  Alcotest.(check int) "the plan misses" 1 (Noc_eas.Eas.count_misses ctg schedule);
  let outcome = Executor.run platform ctg schedule in
  Alcotest.(check (list int)) "the replay misses" [ 0 ] outcome.deadline_misses

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)

(* Minor words per task each stage allocates on category-I index 0,
   the first instance of the cat1-slack benchmark workload, called as
   the benchmark calls it. The schedule and the reclaim are built
   outside the measurement. *)
let per_task_words f ctg =
  let words0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.minor_words () -. words0) /. float_of_int (Ctg.n_tasks ctg)

let measure_index0 () =
  let ctg = Category.benchmark Category.Category_i ~index:0 in
  let schedule = (Noc_eas.Eas.schedule ~jobs:1 platform ctg).Noc_eas.Eas.schedule in
  let r = Reclaim.run ~table:Vf_table.default ctg schedule in
  let check = per_task_words (fun () -> Certify.check platform ctg schedule) ctg in
  let scaled =
    per_task_words
      (fun () ->
        Certify.check_scaled ~ratios ~annotations:r.annotations ~base:schedule platform ctg
          r.schedule)
      ctg
  in
  let run = per_task_words (fun () -> Executor.run platform ctg schedule) ctg in
  (check, scaled, run)

(* Before the flat-array rewrite the three read 450, 454 and 521 words
   per task; now ~3.6, ~3.6 and ~68. The certifier's booking, order and
   channel arrays are mostly too large for the minor heap, so what is
   left there is small arrays and closures made once per call. The
   replay's is the realised schedule with its boxed windows, the boxed
   event times crossing into the event queue and each finished task's
   out-edge list. A list, a tuple or a closure per booking, route step,
   event or dispatch pass shows here. *)
let budgets = [ ("Certify.check", 5.); ("Certify.check_scaled", 5.); ("Executor.run", 85.) ]

let test_allocation_budgets () =
  let check, scaled, run = measure_index0 () in
  List.iter2
    (fun (name, budget) words ->
      if words > budget then
        Alcotest.failf "%s: %.1f minor words per task, budget %.0f" name words budget)
    budgets [ check; scaled; run ]

let suite =
  [
    Alcotest.test_case "certify matches the reference on the golden corpus" `Quick
      test_golden_corpus;
    Alcotest.test_case "certify matches the reference on the mutation corpus" `Quick
      test_mutation_corpus;
    Alcotest.test_case "scaled certify matches the reference on category I/II" `Slow
      test_scaled_suite;
    Alcotest.test_case "scaled certify matches the reference on mutations" `Slow
      test_scaled_mutations;
    Alcotest.test_case "scaled certify: energy monotonicity alone" `Quick
      test_energy_monotone_fixture;
    Alcotest.test_case "executor matches the reference on category I/II" `Slow
      test_executor_suite;
    Alcotest.test_case "executor matches the reference under contention" `Quick
      test_executor_contention;
    Alcotest.test_case "executor matches the reference on gridded plans" `Quick
      test_executor_gridded;
    Alcotest.test_case "executor counts misses as the schedulers do" `Quick test_miss_rule;
    Alcotest.test_case "verification allocation budget per task" `Slow
      test_allocation_budgets;
  ]
