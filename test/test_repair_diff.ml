(* Differential harness for the Step-3 repair search: Repair.run, which
   re-places only the suffix a candidate move can change and abandons
   candidates that cannot win, must match the full-rebuild oracle
   (Repair_reference) exactly — byte-identical Schedule_io output and
   identical stats — on repair-active category I/II and TGFF graphs,
   under every move set, on degraded platforms (including migrations
   onto a PE the fault set cuts off), under a tight evaluation cap, and
   through Fault_resched. *)

module Repair = Noc_eas.Repair
module Reference = Repair_reference
module Eas = Noc_eas.Eas
module Fault_resched = Noc_eas.Fault_resched
module Schedule_io = Noc_sched.Schedule_io
module Category = Noc_tgff.Category
module Params = Noc_tgff.Params
module Degraded = Noc_noc.Degraded
module Platform = Noc_noc.Platform
module Fault = Noc_fault.Fault
module Fault_set = Noc_fault.Fault_set

let category_ctg ?tightness kind ~seed =
  let params = { (Category.params kind) with Params.n_tasks = 40 } in
  let params =
    match tightness with
    | None -> params
    | Some t -> { params with Params.deadline_tightness = t }
  in
  Noc_tgff.Generate.generate ~params ~platform:Category.platform ~seed

(* The CLI's [--benchmark tgff:SEED --tightness 1.8] instance. *)
let tgff_platform = Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 ()

let tgff_ctg ~n_tasks ~seed =
  let params =
    { Params.default with n_tasks; deadline_tightness = 1.8 }
  in
  Noc_tgff.Generate.generate ~params ~platform:tgff_platform ~seed

let base ?degraded platform ctg =
  let kernel = Noc_eas.Kernel.build ?degraded platform ctg in
  (Eas.schedule ~repair:false ~kernel platform ctg).Eas.schedule

let pp_stats (s : Repair.stats) =
  Printf.sprintf "swaps=%d migrations=%d evaluations=%d" s.accepted_swaps
    s.accepted_migrations s.evaluations

(* Runs both searches on the same input; returns the evaluations so a
   caller can check the corpus exercised the search at all. *)
let check_repair ?degraded ?max_evaluations ?moves ~label platform ctg schedule =
  let got, got_stats =
    let kernel = Noc_eas.Kernel.build ?degraded platform ctg in
    Repair.run ~kernel ?max_evaluations ?moves platform ctg schedule
  in
  let want, want_stats =
    Reference.run ?degraded ?max_evaluations ?moves platform ctg schedule
  in
  Alcotest.(check string) (label ^ ": stats") (pp_stats want_stats) (pp_stats got_stats);
  Alcotest.(check string)
    (label ^ ": schedule") (Schedule_io.to_string want) (Schedule_io.to_string got);
  got_stats.evaluations

let moves_variants =
  [ ("both", Repair.Both); ("lts", Repair.Lts_only); ("gtm", Repair.Gtm_only) ]

let check_all_moves ?degraded ~label platform ctg schedule =
  List.fold_left
    (fun acc (name, moves) ->
      acc + check_repair ?degraded ~moves ~label:(label ^ "/" ^ name) platform ctg schedule)
    0 moves_variants

(* Each seed at its category's tightness (repair rarely runs there) and
   at 1.8, where it mostly does. *)
let test_category_corpus () =
  let active = ref 0 in
  List.iter
    (fun (kind, kind_name) ->
      List.iter
        (fun (tightness, t_name) ->
          for seed = 0 to 19 do
            let ctg = category_ctg ?tightness kind ~seed in
            let schedule = base Category.platform ctg in
            let evaluations =
              check_all_moves
                ~label:(Printf.sprintf "%s/40/%s/seed-%d" kind_name t_name seed)
                Category.platform ctg schedule
            in
            if evaluations > 0 then incr active
          done)
        [ (None, "default"); (Some 1.8, "tight-1.8") ])
    [ (Category.Category_i, "cat-i"); (Category.Category_ii, "cat-ii") ];
  (* 18 of the 80 cases need repair. *)
  Alcotest.(check bool) "the corpus runs the search" true (!active >= 10)

(* One full-size instance of the paper's category-II suite (index 4),
   where the search runs 139 evaluations over a ~500-task graph. *)
let test_category_ii_full_size () =
  let ctg = Category.benchmark Category.Category_ii ~index:4 in
  let evaluations =
    check_repair ~label:"cat-ii/full/index-4" Category.platform ctg
      (base Category.platform ctg)
  in
  Alcotest.(check int) "evaluations" 139 evaluations

(* The benchmark's own inputs: every instance of the paper's category-II
   suite (indices 0-9, the cat2-tight workload) through the full EAS
   pipeline on [Category.platform]. Each line holds the MD5 of the
   Schedule_io text, the misses before and after Step 3, and the repair
   statistics. They were recorded with the list-based resource journal
   that the flat undo log replaced, and pin the flat one to its output. *)
let category_ii_suite_golden =
  [
    "cat2-0 8f50009ecea6d82fab318563f7d066f0 misses=12->0 repair=swaps=25 migrations=0 evaluations=886";
    "cat2-1 ac4bebcbcae0e2723103ed0bfbb18aef misses=25->0 repair=swaps=18 migrations=7 evaluations=1963";
    "cat2-2 10654cf722bb7acd0cfbbada4df7e774 misses=10->0 repair=swaps=18 migrations=10 evaluations=2252";
    "cat2-3 83172fbdac450d58c5b1f96e9907d80f misses=4->0 repair=swaps=7 migrations=3 evaluations=1000";
    "cat2-4 cf57d970631e54f7dd823ea68e8a18e3 misses=3->0 repair=swaps=5 migrations=2 evaluations=139";
    "cat2-5 f4e73b565e0b18027bd717c781ea6a2c misses=0->0 repair=none";
    "cat2-6 c3d66e999200c695ccd976422447023a misses=3->0 repair=swaps=4 migrations=1 evaluations=322";
    "cat2-7 384c2b55ac9e25c86564d62b28c44a3f misses=6->0 repair=swaps=21 migrations=1 evaluations=307";
    "cat2-8 9f50d5661efea585ffcda3e429e2dc8d misses=4->0 repair=swaps=4 migrations=1 evaluations=246";
    "cat2-9 e24e079be81c7d2babad41c2c18d7a8b misses=2->0 repair=swaps=7 migrations=4 evaluations=1071";
  ]

let test_category_ii_suite_golden () =
  let got =
    List.init 10 (fun index ->
        let ctg = Category.benchmark Category.Category_ii ~index in
        let outcome = Eas.schedule Category.platform ctg in
        Printf.sprintf "cat2-%d %s misses=%d->%d repair=%s" index
          (Digest.to_hex (Digest.string (Schedule_io.to_string outcome.schedule)))
          outcome.stats.misses_before_repair outcome.stats.misses_after_repair
          (match outcome.stats.repair with None -> "none" | Some r -> pp_stats r))
  in
  Alcotest.(check (list string)) "category II suite 0-9" category_ii_suite_golden got

(* An allocation budget for Step 3. The committing Fig. 3 walk, its
   rollback and its redo pass floats in arrays and journal table ids, so
   re-placing a task boxes nothing; what is left per re-placed task is
   the per-evaluation work (scores, accepted candidates) spread over the
   tasks each evaluation re-places. The kernel and the Step-2 base are
   built outside the measurement. A boxed float creeping back into the
   walk shows here as a failed test rather than as a slower benchmark. *)
let test_allocation_budget () =
  let module Counters = Noc_obs.Counters in
  let ctg = Category.benchmark Category.Category_ii ~index:0 in
  let kernel = Noc_eas.Kernel.build Category.platform ctg in
  let schedule = base Category.platform ctg in
  let replaced = Counters.counter "eas.repair.replaced_tasks" in
  Counters.set_enabled true;
  let tasks, words =
    Fun.protect
      ~finally:(fun () -> Counters.set_enabled false)
      (fun () ->
        let tasks0 = Counters.value replaced in
        let words0 = Gc.minor_words () in
        ignore (Repair.run ~kernel Category.platform ctg schedule);
        let words = Gc.minor_words () -. words0 in
        (Counters.value replaced - tasks0, words))
  in
  Alcotest.(check bool) "repair re-placed tasks" true (tasks > 0);
  let per_task = words /. float_of_int tasks in
  if per_task > 30. then
    Alcotest.failf "%.1f minor words per re-placed task (%d tasks), budget 30" per_task
      tasks

let test_tgff_corpus () =
  let active = ref 0 in
  for seed = 1 to 6 do
    let ctg = tgff_ctg ~n_tasks:200 ~seed in
    let evaluations =
      check_all_moves
        ~label:(Printf.sprintf "tgff/200/seed-%d" seed)
        tgff_platform ctg (base tgff_platform ctg)
    in
    if evaluations > 0 then incr active
  done;
  Alcotest.(check bool) "most seeds are repair-active" true (!active >= 4)

let test_evaluation_cap () =
  let ctg = tgff_ctg ~n_tasks:200 ~seed:1 in
  let evaluations =
    check_repair ~max_evaluations:7 ~label:"tgff/200/seed-1/cap-7" tgff_platform ctg
      (base tgff_platform ctg)
  in
  Alcotest.(check int) "the cap binds" 7 evaluations

(* A PE fault and a link fault on the degraded fabric: the searches run
   on a schedule built for the degraded view, as Eas.schedule does, with
   the paper's move set (the LTS- and GTM-only paths are shared with the
   fault-free corpus above). *)
let degraded_views () =
  let link = List.nth (Platform.all_links tgff_platform) 5 in
  [
    ("pe-fault", Degraded.make tgff_platform ~failed_pes:[ 5 ] ~failed_links:[]);
    ("link-fault", Degraded.make tgff_platform ~failed_pes:[] ~failed_links:[ link ]);
  ]

let test_degraded () =
  List.iter
    (fun (name, view) ->
      for seed = 1 to 3 do
        let ctg = tgff_ctg ~n_tasks:200 ~seed in
        let schedule = base ~degraded:view tgff_platform ctg in
        let evaluations =
          check_repair ~degraded:view
            ~label:(Printf.sprintf "%s/tgff/200/seed-%d" name seed)
            tgff_platform ctg schedule
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d is repair-active" name seed)
          true (evaluations > 0)
      done)
    (degraded_views ())

(* Every link into and out of PE 6 fails while the PE itself stays
   alive, so GTM may try to migrate a communicating task onto it: the
   rebuild raises Invalid_argument, the candidate is rejected, and the
   shared resource state must come back intact for the next one. *)
let test_disconnected_migration () =
  let isolated = 6 in
  let cut =
    List.filter
      (fun (l : Noc_noc.Routing.link) -> l.from_node = isolated || l.to_node = isolated)
      (Platform.all_links tgff_platform)
  in
  let view = Degraded.make tgff_platform ~failed_pes:[] ~failed_links:cut in
  let failed_before = !Reference.failed_rebuilds in
  for seed = 1 to 2 do
    let ctg = tgff_ctg ~n_tasks:200 ~seed in
    let schedule = base ~degraded:view tgff_platform ctg in
    ignore
      (check_repair ~degraded:view ~moves:Repair.Gtm_only
         ~label:(Printf.sprintf "isolated-pe/tgff/200/seed-%d" seed)
         tgff_platform ctg schedule)
  done;
  Alcotest.(check bool) "some migration hit the disconnected pair" true
    (!Reference.failed_rebuilds > failed_before)

let pp_outcome (o : Fault_resched.outcome) =
  let s = o.stats in
  Printf.sprintf "migrated=%d rerouted=%d misses=%d lateness=%h full=%b repair=%s\n%s"
    s.migrated_tasks s.rerouted_transactions s.misses s.lateness s.used_full_rerun
    (match s.repair with None -> "none" | Some r -> pp_stats r)
    (Schedule_io.to_string o.schedule)

let test_fault_resched () =
  let faults =
    let link = List.nth (Platform.all_links tgff_platform) 5 in
    [
      ("pe-fault", Fault_set.of_list [ Fault.pe 5 () ]);
      ( "link-fault",
        Fault_set.of_list
          [ Fault.link ~from_node:link.from_node ~to_node:link.to_node () ] );
    ]
  in
  let repaired = ref 0 in
  List.iter
    (fun (name, faults) ->
      for seed = 1 to 2 do
        let ctg = tgff_ctg ~n_tasks:200 ~seed in
        let schedule = (Eas.schedule tgff_platform ctg).Eas.schedule in
        let got = Fault_resched.run tgff_platform ctg ~faults schedule in
        let want = Reference.fault_resched tgff_platform ctg ~faults schedule in
        if got.stats.repair <> None then incr repaired;
        Alcotest.(check string)
          (Printf.sprintf "%s/tgff/200/seed-%d" name seed)
          (pp_outcome want) (pp_outcome got)
      done)
    faults;
  Alcotest.(check bool) "some outcome comes from the repair search" true (!repaired > 0)

(* The incremental API directly, with arbitrary (not start-time
   consistent) ranks so a re-ranked task can overtake incumbent picks
   before its own step: every candidate replayed from its restart step
   must be byte-identical to a full Rebuild.run, or fail exactly when it
   raises, across chains of rejected and accepted moves on one
   incumbent. A quarter of the cases cut PE 4 off, so migrations onto it
   fail. *)
let small_platform = Platform.heterogeneous_mesh ~seed:7 ~cols:3 ~rows:3 ()

let cut_off_view =
  Degraded.make small_platform ~failed_pes:[]
    ~failed_links:
      (List.filter
         (fun (l : Noc_noc.Routing.link) -> l.from_node = 4 || l.to_node = 4)
         (Platform.all_links small_platform))

let qcheck_suffix_replay =
  let module Rebuild = Noc_eas.Rebuild in
  let gen =
    QCheck.(
      pair (int_range 0 10_000)
        (list_of_size Gen.(1 -- 15) (triple bool small_nat small_nat)))
  in
  QCheck.Test.make ~name:"suffix replay equals a full rebuild" ~count:150 gen
    (fun (seed, moves) ->
      let params = { Params.default with n_tasks = 8 + (seed mod 25) } in
      let ctg = Noc_tgff.Generate.generate ~params ~platform:small_platform ~seed in
      let n = Noc_ctg.Ctg.n_tasks ctg and n_pes = Platform.n_pes small_platform in
      let degraded = if seed mod 4 = 0 then Some cut_off_view else None in
      let rng = Random.State.make [| seed |] in
      let assignment = Array.init n (fun _ -> Random.State.int rng n_pes) in
      let rank = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = rank.(i) in
        rank.(i) <- rank.(j);
        rank.(j) <- tmp
      done;
      let kernel = Noc_eas.Kernel.build ?degraded small_platform ctg in
      let inc = Rebuild.checkpoint kernel ~assignment ~rank in
      let swap a b =
        let tmp = rank.(a) in
        rank.(a) <- rank.(b);
        rank.(b) <- tmp
      in
      List.for_all
        (fun (is_swap, a, b) ->
          let a = a mod n in
          let from, undo =
            if is_swap then begin
              let b = b mod n in
              swap a b;
              (Rebuild.swap_restart inc ~rank a b, fun () -> swap a b)
            end
            else begin
              let home = assignment.(a) in
              assignment.(a) <- b mod n_pes;
              (Rebuild.migration_restart inc a, fun () -> assignment.(a) <- home)
            end
          in
          let want =
            try
              Some
                (Schedule_io.to_string
                   (Rebuild.run kernel ~assignment ~rank))
            with Invalid_argument _ -> None
          in
          let got =
            match
              Rebuild.evaluate inc ~assignment ~rank ~from ~best:(max_int, infinity)
            with
            | Rebuild.Completed, _ -> Some (Schedule_io.to_string (Rebuild.candidate inc))
            | Rebuild.Failed, _ -> None
            | Rebuild.Abandoned, _ -> Some "abandoned without a bound"
          in
          (* Accept a third of the moves that complete. *)
          if got <> None && a mod 3 = 0 then Rebuild.rebase inc ~assignment ~rank
          else undo ();
          want = got)
        moves)

(* The flat-array list scheduler against the frozen list-based one, on
   arbitrary (assignment, rank) pairs: byte-identical schedules, or both
   raise [Invalid_argument]. Each case draws the communication model and
   the fabric: intact, one failed link, or PE 4 cut off (so assignments
   onto it must fail). *)
let link_fault_view =
  Degraded.make small_platform ~failed_pes:[]
    ~failed_links:[ List.nth (Platform.all_links small_platform) 3 ]

let qcheck_rebuild_vs_reference =
  let module Rebuild = Noc_eas.Rebuild in
  let module Comm_sched = Noc_sched.Comm_sched in
  QCheck.Test.make ~name:"Rebuild.run equals the list-based reference" ~count:300
    QCheck.(triple (int_range 0 10_000) bool (int_range 0 2))
    (fun (seed, fixed_delay, fabric) ->
      let params = { Params.default with n_tasks = 8 + (seed mod 40) } in
      let ctg = Noc_tgff.Generate.generate ~params ~platform:small_platform ~seed in
      let n = Noc_ctg.Ctg.n_tasks ctg and n_pes = Platform.n_pes small_platform in
      let comm_model = if fixed_delay then Some Comm_sched.Fixed_delay else None in
      let degraded =
        match fabric with 0 -> None | 1 -> Some link_fault_view | _ -> Some cut_off_view
      in
      let rng = Random.State.make [| seed |] in
      let assignment = Array.init n (fun _ -> Random.State.int rng n_pes) in
      let rank = Array.init n (fun _ -> Random.State.int rng (2 * n)) in
      let build run =
        match run () with
        | schedule -> Some (Schedule_io.to_string schedule)
        | exception Invalid_argument _ -> None
      in
      build (fun () ->
          Noc_oracle.Rebuild_reference.run ?comm_model ?degraded small_platform ctg
            ~assignment ~rank)
      = build (fun () ->
            Rebuild.run
              (Noc_eas.Kernel.build ?degraded ?comm_model small_platform ctg)
              ~assignment ~rank))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_rebuild_vs_reference;
    QCheck_alcotest.to_alcotest qcheck_suffix_replay;
    Alcotest.test_case "category I/II 40-task corpus, every move set" `Quick
      test_category_corpus;
    Alcotest.test_case "category II full-size instance" `Quick test_category_ii_full_size;
    Alcotest.test_case "category II suite 0-9 pinned" `Quick test_category_ii_suite_golden;
    Alcotest.test_case "allocation budget per re-placed task" `Quick test_allocation_budget;
    Alcotest.test_case "tgff 200-task corpus, every move set" `Quick test_tgff_corpus;
    Alcotest.test_case "max_evaluations cap" `Quick test_evaluation_cap;
    Alcotest.test_case "degraded platform, PE and link faults" `Quick test_degraded;
    Alcotest.test_case "migration onto a disconnected pair" `Quick
      test_disconnected_migration;
    Alcotest.test_case "Fault_resched outcomes" `Quick test_fault_resched;
  ]
