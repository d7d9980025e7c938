(* Static-analysis layer tests: channel-dependency graphs and the
   deadlock analyzer, one minimal failing fixture per lint rule, and the
   independent schedule certifier exercised as a differential oracle
   against Noc_sched.Validate over the golden corpus. *)

module Cdg = Noc_analysis.Cdg
module Deadlock = Noc_analysis.Deadlock
module Qos = Noc_analysis.Qos
module Turn_model = Noc_noc.Turn_model
module Ctg_lint = Noc_analysis.Ctg_lint
module Platform_lint = Noc_analysis.Platform_lint
module Certify = Noc_analysis.Certify
module Diagnostic = Noc_analysis.Diagnostic
module Task = Noc_ctg.Task
module Edge = Noc_ctg.Edge
module Schedule = Noc_sched.Schedule

let rules ds = List.map (fun (d : Diagnostic.t) -> d.rule) ds
let turn_models = [ Turn_model.Xy; Turn_model.West_first; Turn_model.Odd_even ]

(* Certified: no error-severity diagnostic (warnings do not block). *)
let certifies ds =
  let errors, _, _ = Diagnostic.count ds in
  errors = 0

let count_rule rule ds =
  List.length (List.filter (fun (d : Diagnostic.t) -> d.rule = rule) ds)

let check_rules = Alcotest.(check (list string))

let faults_exn specs =
  match Noc_fault.Fault_set.of_strings specs with
  | Ok f -> f
  | Error msg -> Alcotest.failf "fault specs rejected: %s" msg

(* ------------------------------------------------------------------ *)
(* Channel-dependency graphs                                           *)

let test_cdg_chained_and_short_routes () =
  let cdg = Cdg.of_routes [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ] in
  Alcotest.(check bool) "acyclic" true (Cdg.is_acyclic cdg);
  (* Routes shorter than one channel contribute nothing. *)
  let empty = Cdg.of_routes [ []; [ 7 ] ] in
  Alcotest.(check bool) "trivially acyclic" true (Cdg.is_acyclic empty)

(* Each consecutive pair of cycle channels must share the middle router
   (dependency a -> b means some route uses b immediately after a), and
   the last channel must chain back to the first. *)
let assert_closed_chain cycle =
  let open Noc_noc.Routing in
  let rec pairs = function
    | (a : link) :: (b :: _ as rest) ->
      Alcotest.(check int) "chained channels" a.to_node b.from_node;
      pairs rest
    | [ _ ] | [] -> ()
  in
  pairs cycle;
  match (cycle, List.rev cycle) with
  | first :: _, last :: _ ->
    Alcotest.(check int) "cycle closes" last.to_node first.from_node
  | [], _ | _, [] -> Alcotest.fail "empty cycle"

let test_cdg_hand_built_cycle () =
  (* Three routes chasing each other around a triangle. *)
  let routes = [ [ 0; 1; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ] ] in
  let cdg = Cdg.of_routes routes in
  Alcotest.(check bool) "cyclic" false (Cdg.is_acyclic cdg);
  match (Cdg.find_cycle cdg, Cdg.find_cycle (Cdg.of_routes routes)) with
  | Some c1, Some c2 ->
    Alcotest.(check bool) "deterministic cycle" true (c1 = c2);
    Alcotest.(check int) "three channels" 3 (List.length c1);
    assert_closed_chain c1
  | None, _ | _, None -> Alcotest.fail "cycle not found"

let test_mesh_xy_deadlock_free () =
  (* The acceptance sweep: XY on every mesh from 2x2 to 8x8 is provably
     deadlock-free. *)
  for cols = 2 to 8 do
    for rows = 2 to 8 do
      let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:1 ~cols ~rows () in
      check_rules (Printf.sprintf "mesh %dx%d" cols rows) []
        (rules (Deadlock.check_platform platform))
    done
  done

let qcheck_mesh_xy_acyclic =
  QCheck.Test.make ~name:"XY CDG on random meshes is acyclic" ~count:60
    QCheck.(pair (int_range 2 8) (int_range 2 8))
    (fun (cols, rows) ->
      Cdg.is_acyclic
        (Deadlock.cdg_of_platform
           (Noc_noc.Platform.heterogeneous_mesh ~seed:7 ~cols ~rows ())))

let qcheck_torus_xy_cycle_law =
  (* Shorter-wrap XY on a torus is deadlock-free exactly when every ring
     is short enough (<= 3 tiles) that no route wraps: any ring of 4 or
     more creates a circular wait along that dimension. *)
  QCheck.Test.make ~name:"torus CDG cyclic iff some ring has >= 4 tiles" ~count:40
    QCheck.(pair (int_range 2 6) (int_range 2 6))
    (fun (cols, rows) ->
      let platform =
        Noc_noc.Platform.heterogeneous ~seed:7 (Noc_noc.Topology.torus ~cols ~rows) ()
      in
      let acyclic = Cdg.is_acyclic (Deadlock.cdg_of_platform platform) in
      acyclic = (max cols rows <= 3))

let test_degraded_cycle_under_faults () =
  (* Two link faults on the 4x4 mesh bend the BFS detours into a
     circular wait the healthy XY routes could never form. *)
  let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
  let faults = faults_exn [ "link:5-6"; "link:9-5" ] in
  let diagnostics = Deadlock.check_degraded platform faults in
  check_rules "one cycle, no disconnection" [ "deadlock/cyclic-cdg" ]
    (rules diagnostics);
  match diagnostics with
  | [ { Diagnostic.location = Diagnostic.Channel_cycle cycle; severity; _ } ] ->
    Alcotest.(check bool) "error severity" true (severity = Diagnostic.Error);
    assert_closed_chain cycle
  | _ -> Alcotest.fail "expected a channel-cycle location"

let test_degraded_single_fault_stays_clean () =
  (* One failed link reroutes without creating a cycle on the 4x4 mesh —
     the Monte-Carlo campaign's 0-cyclic result in miniature. *)
  let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
  check_rules "single link fault" []
    (rules (Deadlock.check_degraded platform (faults_exn [ "link:5-6" ])))

let test_degraded_unreachable_pairs () =
  (* Failing both links into tile 3 of a 2x2 mesh cuts it off from every
     source while its own outgoing routes survive. *)
  let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:1 ~cols:2 ~rows:2 () in
  let faults = faults_exn [ "link:1-3"; "link:2-3" ] in
  let diagnostics = Deadlock.check_degraded platform faults in
  Alcotest.(check int) "three unreachable pairs" 3
    (count_rule "deadlock/unreachable-pair" diagnostics);
  Alcotest.(check int) "nothing else" 3 (List.length diagnostics)

(* ------------------------------------------------------------------ *)
(* Turn-model route relations: the adaptive deadlock proofs and the
   two-fault regression the turn-legal detours solve.                  *)

let test_adaptive_relations_certified () =
  (* The acceptance sweep for the relation-level proof: west-first and
     odd-even on every mesh from 2x2 to 8x8 certify with zero
     diagnostics — every admissible route minimal, every composed turn
     legal by the model's own predicate, relation CDG acyclic. *)
  List.iter
    (fun routing ->
      for cols = 2 to 8 do
        for rows = 2 to 8 do
          let platform =
            Noc_noc.Platform.heterogeneous_mesh ~seed:1 ~routing ~cols ~rows ()
          in
          check_rules
            (Printf.sprintf "%s mesh %dx%d" (Turn_model.name routing) cols rows)
            []
            (rules (Deadlock.check_platform platform))
        done
      done)
    [ Turn_model.West_first; Turn_model.Odd_even ]

let test_adaptive_unsupported_on_torus () =
  (* Torus wraparounds re-introduce the ring cycles the turn
     prohibitions break, so the adaptive models refuse the topology
     outright rather than emit an unsound proof. *)
  let platform =
    Noc_noc.Platform.heterogeneous ~seed:1 (Noc_noc.Topology.torus ~cols:4 ~rows:4) ()
  in
  List.iter
    (fun routing ->
      check_rules (Turn_model.name routing) [ "routing/unsupported-topology" ]
        (rules (Deadlock.check_routing ~routing platform)))
    [ Turn_model.West_first; Turn_model.Odd_even ]

let qcheck_relation_cdg_acyclic =
  QCheck.Test.make ~name:"relation CDG acyclic for all three turn models" ~count:30
    QCheck.(pair (int_range 2 8) (int_range 2 8))
    (fun (cols, rows) ->
      let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:7 ~cols ~rows () in
      List.for_all
        (fun routing -> Cdg.is_acyclic (Deadlock.cdg_of_routing routing platform))
        turn_models)

let manhattan ~cols src dst =
  abs ((src mod cols) - (dst mod cols)) + abs ((src / cols) - (dst / cols))

let qcheck_admissible_walks_minimal_and_legal =
  (* The route-relation laws, sampled over random hop choices: any walk
     that follows [next_hops] reaches the destination in exactly the
     Manhattan distance (minimality and totality — no stalls), and
     every turn it composes passes the model's own legality predicate.
     This covers west-first minimality up to 8x8 as a special case. *)
  QCheck.Test.make ~name:"every admissible walk is minimal and turn-legal"
    ~count:300
    QCheck.(
      triple (pair (int_range 2 8) (int_range 2 8)) (int_bound 10_000)
        (int_bound 10_000))
    (fun ((cols, rows), pair_pick, walk_pick) ->
      let topo = Noc_noc.Topology.mesh ~cols ~rows in
      let n = cols * rows in
      let src = pair_pick mod n in
      let dst = (src + 1 + (pair_pick / n mod (n - 1))) mod n in
      List.for_all
        (fun routing ->
          let dist = manhattan ~cols src dst in
          let rec walk prev node steps =
            if node = dst then steps = dist
            else if steps >= dist then false
            else
              match Turn_model.next_hops routing topo ~src ~node ~dst with
              | [] -> false
              | hops ->
                let next =
                  List.nth hops ((walk_pick + steps) mod List.length hops)
                in
                (match prev with
                | None -> true
                | Some p -> Turn_model.turn_legal routing topo ~prev:p ~via:node ~next)
                && walk (Some node) next (steps + 1)
          in
          walk None src 0)
        turn_models)

let pr3_fault_specs = [ "link:5-6"; "link:9-5" ]

let test_two_fault_case_solved_by_west_first () =
  (* The regression pinned by test_degraded_cycle_under_faults: the
     exact fault pair that bends XY's unrestricted BFS detours into a
     circular wait. Under west-first the degraded view finds a
     turn-legal (possibly non-minimal) detour for every pair, so the
     degraded route set is certifiably acyclic — the two-fault case is
     solved, not merely detected. *)
  let platform =
    Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~routing:Turn_model.West_first
      ~cols:4 ~rows:4 ()
  in
  let faults = faults_exn pr3_fault_specs in
  check_rules "west-first survives the two-fault case" []
    (rules (Deadlock.check_degraded platform faults));
  (* The constructive reason: every degraded route stays inside the
     turn-legal walk set, so Glass & Ni applies route by route. *)
  let view = Noc_fault.Fault_set.degraded faults platform in
  let routes, unreachable = Deadlock.degraded_routes view in
  Alcotest.(check (list (pair int int))) "no disconnection" [] unreachable;
  let topo = Noc_noc.Platform.topology platform in
  List.iter
    (fun route ->
      let rec turns = function
        | prev :: (via :: next :: _ as rest) ->
          Alcotest.(check bool)
            (Printf.sprintf "turn %d->%d->%d legal" prev via next)
            true
            (Turn_model.turn_legal Turn_model.West_first topo ~prev ~via ~next);
          turns rest
        | _ -> ()
      in
      turns route)
    routes

let test_two_fault_case_odd_even_falls_back () =
  (* Odd-even provably cannot route 5 -> 6 once links 5-6 and 9-5 are
     gone: every surviving approach to tile 6 needs an EN/ES turn at an
     even column or an NW/SW turn at an odd one. The view falls back to
     an unrestricted BFS detour for that pair and the analyzer still
     reports the cycle — the honest negative the docs record. *)
  let platform =
    Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~routing:Turn_model.Odd_even
      ~cols:4 ~rows:4 ()
  in
  let diagnostics = Deadlock.check_degraded platform (faults_exn pr3_fault_specs) in
  Alcotest.(check bool) "cycle still reported" true
    (List.mem "deadlock/cyclic-cdg" (rules diagnostics))

let test_detour_survival_sweep () =
  (* The turn-model soundness law on degraded views, over a fixed sweep:
     twelve sampled two-link fault sets (seeds 700-711) plus the
     two-fault pair above, on the 4x4 mesh under each routing model.
     Whenever every degraded route stays inside the model's turn-legal
     walk set, the route set must be acyclic (Glass & Ni); sets that
     force a BFS fallback carry no guarantee. The survival counts are
     pinned, so a change to the detour search shows up here. *)
  let sample_platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
  let fault_sets =
    List.init 12 (fun i ->
        Noc_fault.Fault_set.sample ~seed:(700 + i) ~platform:sample_platform
          ~n_link_faults:2 ~n_pe_faults:0 ())
    @ [ faults_exn pr3_fault_specs ]
  in
  let all_turn_legal routing topo routes =
    let rec legal = function
      | prev :: (via :: next :: _ as rest) ->
        Turn_model.turn_legal routing topo ~prev ~via ~next && legal rest
      | _ -> true
    in
    List.for_all legal routes
  in
  List.iter
    (fun (routing, expected_acyclic, expected_legal) ->
      let name = Turn_model.name routing in
      let platform =
        Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~routing ~cols:4 ~rows:4 ()
      in
      let topo = Noc_noc.Platform.topology platform in
      let verdicts =
        List.map
          (fun faults ->
            let acyclic =
              count_rule "deadlock/cyclic-cdg" (Deadlock.check_degraded platform faults)
              = 0
            in
            let routes, _ =
              Deadlock.degraded_routes (Noc_fault.Fault_set.degraded faults platform)
            in
            (all_turn_legal routing topo routes, acyclic))
          fault_sets
      in
      List.iteri
        (fun i (legal, acyclic) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s fault set %d: turn-legal implies acyclic" name i)
            true
            ((not legal) || acyclic))
        verdicts;
      let count f = List.length (List.filter f verdicts) in
      Alcotest.(check int) (name ^ ": acyclic sets of 13") expected_acyclic (count snd);
      Alcotest.(check int) (name ^ ": fully turn-legal sets of 13") expected_legal
        (count fst))
    [ (Turn_model.Xy, 5, 0); (Turn_model.West_first, 8, 5); (Turn_model.Odd_even, 5, 3) ];
  (* And the fault-free relation proofs on the 8x8 acceptance mesh. *)
  let proof_platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:8 ~rows:8 () in
  List.iter
    (fun routing ->
      check_rules (Turn_model.name routing ^ " relation proof on 8x8") []
        (rules (Deadlock.check_routing ~routing proof_platform)))
    turn_models

(* ------------------------------------------------------------------ *)
(* CTG lint: one minimal failing fixture per rule.                     *)

let task ?release ?deadline ~id exec_times =
  Task.make ~id ~exec_times ~energies:(Array.map (fun _ -> 1.) exec_times) ?release
    ?deadline ()

let test_lint_empty_graph () =
  check_rules "empty graph" [ "ctg/empty-graph" ]
    (rules (Ctg_lint.check_raw ~n_pes:4 ~tasks:[||] ~edges:[||]))

let test_lint_pe_count_mismatch () =
  let tasks = [| task ~id:0 [| 1.; 1. |] |] in
  check_rules "pe count" [ "ctg/pe-count-mismatch" ]
    (rules (Ctg_lint.check_raw ~n_pes:4 ~tasks ~edges:[||]))

let test_lint_dangling_edge () =
  let tasks = [| task ~id:0 [| 1. |]; task ~id:1 [| 1. |] |] in
  let edges = [| Edge.make ~id:0 ~src:0 ~dst:5 ~volume:8. |] in
  check_rules "dangling" [ "ctg/dangling-edge" ]
    (rules (Ctg_lint.check_raw ~n_pes:1 ~tasks ~edges))

let test_lint_duplicate_edge () =
  let tasks = [| task ~id:0 [| 1. |]; task ~id:1 [| 1. |] |] in
  let edges =
    [| Edge.make ~id:0 ~src:0 ~dst:1 ~volume:8.;
       Edge.make ~id:1 ~src:0 ~dst:1 ~volume:16. |]
  in
  let diagnostics = Ctg_lint.check_raw ~n_pes:1 ~tasks ~edges in
  check_rules "duplicate" [ "ctg/duplicate-edge" ] (rules diagnostics);
  match diagnostics with
  | [ { Diagnostic.location = Diagnostic.Edge 1; _ } ] -> ()
  | _ -> Alcotest.fail "the second arc is the duplicate"

let test_lint_cycle () =
  let tasks = [| task ~id:0 [| 1. |]; task ~id:1 [| 1. |] |] in
  let edges =
    [| Edge.make ~id:0 ~src:0 ~dst:1 ~volume:0.;
       Edge.make ~id:1 ~src:1 ~dst:0 ~volume:0. |]
  in
  check_rules "cycle" [ "ctg/cycle" ]
    (rules (Ctg_lint.check_raw ~n_pes:1 ~tasks ~edges))

let test_lint_unreachable_task () =
  let tasks =
    [| task ~id:0 [| 1. |]; task ~id:1 [| 1. |]; task ~id:2 [| 1. |] |]
  in
  let edges = [| Edge.make ~id:0 ~src:0 ~dst:1 ~volume:8. |] in
  let diagnostics = Ctg_lint.check_raw ~n_pes:1 ~tasks ~edges in
  check_rules "isolated task" [ "ctg/unreachable-task" ] (rules diagnostics);
  match diagnostics with
  | [ { Diagnostic.location = Diagnostic.Task 2; severity; _ } ] ->
    Alcotest.(check bool) "warning, not error" true (severity = Diagnostic.Warning)
  | _ -> Alcotest.fail "task 2 is the isolated one"

let test_lint_no_feasible_variant () =
  (* Fastest variant takes 10 against a 5-wide window: every placement
     misses, whatever the rest of the schedule does. *)
  let tasks = [| task ~id:0 [| 10.; 12. |] ~deadline:5. |] in
  check_rules "window too small" [ "ctg/no-feasible-variant" ]
    (rules (Ctg_lint.check_raw ~n_pes:2 ~tasks ~edges:[||]))

let test_lint_deadline_infeasible () =
  (* Each task fits its own window, but the chain's critical-path lower
     bound (10 + 10 = 20) proves the 15-deadline unreachable. *)
  let tasks = [| task ~id:0 [| 10. |]; task ~id:1 [| 10. |] ~deadline:15. |] in
  let edges = [| Edge.make ~id:0 ~src:0 ~dst:1 ~volume:8. |] in
  check_rules "chain bound exceeds deadline" [ "ctg/deadline-infeasible" ]
    (rules (Ctg_lint.check_raw ~n_pes:1 ~tasks ~edges))

let test_lint_generated_graphs_error_free () =
  (* TGFF graphs must never trip an error-severity rule. Warnings are
     genuine findings the generator can legitimately produce — seed 4
     of the corpus params emits an isolated task, which the
     unreachable-task lint correctly surfaces. *)
  let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:3 ~cols:3 ~rows:3 () in
  let params = { Noc_tgff.Params.default with n_tasks = 24; max_layer_width = 5 } in
  for seed = 0 to 4 do
    let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
    let diagnostics = Ctg_lint.check ctg in
    let errors, _, _ = Diagnostic.count diagnostics in
    Alcotest.(check int) (Printf.sprintf "tgff seed %d errors" seed) 0 errors;
    List.iter
      (fun (d : Diagnostic.t) ->
        Alcotest.(check string)
          (Printf.sprintf "tgff seed %d warning rule" seed)
          "ctg/unreachable-task" d.rule)
      diagnostics
  done

(* ------------------------------------------------------------------ *)
(* Platform lint                                                       *)

let test_platform_lint_clean_fabrics () =
  List.iter
    (fun (name, topology) ->
      let platform = Noc_noc.Platform.heterogeneous ~seed:5 topology () in
      check_rules name [] (rules (Platform_lint.check platform)))
    [
      ("mesh", Noc_noc.Topology.mesh ~cols:4 ~rows:4);
      ("torus", Noc_noc.Topology.torus ~cols:4 ~rows:4);
      ("honeycomb", Noc_noc.Topology.honeycomb ~cols:4 ~rows:4);
    ]

let test_platform_lint_bisection_bandwidth () =
  (* A gigabit of traffic against a 4-link bisection of a 2x2 mesh at
     default bandwidth needs ~78125 time units; the 10-unit deadline is
     hopeless for any placement that splits the two tasks across the
     midline. *)
  let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:1 ~cols:2 ~rows:2 () in
  let ctg =
    Noc_ctg.Ctg.make_exn
      ~tasks:
        [| task ~id:0 [| 1.; 1.; 1.; 1. |];
           task ~id:1 [| 1.; 1.; 1.; 1. |] ~deadline:10. |]
      ~edges:[| Edge.make ~id:0 ~src:0 ~dst:1 ~volume:1e9 |]
  in
  let diagnostics = Platform_lint.check ~ctg platform in
  check_rules "capacity smell" [ "platform/bisection-bandwidth" ] (rules diagnostics);
  Alcotest.(check int) "warning severity" 1
    (let _, warnings, _ = Diagnostic.count diagnostics in
     warnings);
  (* The same graph with a realistic volume passes. *)
  let light =
    Noc_ctg.Ctg.make_exn
      ~tasks:
        [| task ~id:0 [| 1.; 1.; 1.; 1. |];
           task ~id:1 [| 1.; 1.; 1.; 1. |] ~deadline:10. |]
      ~edges:[| Edge.make ~id:0 ~src:0 ~dst:1 ~volume:64. |]
  in
  check_rules "light traffic" [] (rules (Platform_lint.check ~ctg:light platform))

(* ------------------------------------------------------------------ *)
(* Schedule certifier                                                  *)

(* The golden corpus of test_oracle.ml: 3x3 heterogeneous platform,
   24-task graphs, 50 seeds, all four schedulers. *)
let corpus_platform = Noc_noc.Platform.heterogeneous_mesh ~seed:3 ~cols:3 ~rows:3 ()

let corpus_params =
  { Noc_tgff.Params.default with n_tasks = 24; max_layer_width = 5 }

let corpus_ctg seed =
  Noc_tgff.Generate.generate ~params:corpus_params ~platform:corpus_platform ~seed

let corpus_schedulers =
  [
    ("EAS", fun ctg -> (Noc_eas.Eas.schedule corpus_platform ctg).Noc_eas.Eas.schedule);
    ("EDF", fun ctg -> Noc_edf.Edf.schedule corpus_platform ctg);
    ( "DLS",
      fun ctg -> Noc_baselines.Dls.schedule corpus_platform ctg );
    ( "energy-greedy",
      fun ctg ->
        Noc_baselines.Energy_greedy.schedule corpus_platform ctg );
  ]

let test_golden_corpus_certifies () =
  (* Every scheduler output over all 50 seeds certifies: the only
     diagnostics the independent re-verification may raise are the
     deadline misses Metrics already reports, and exactly as many. The
     claimed energy must reproduce under the certifier's own Eq. 3
     derivation (diagnostic-free, hence no energy-mismatch warnings). *)
  for seed = 0 to 49 do
    let ctg = corpus_ctg seed in
    List.iter
      (fun (name, scheduler) ->
        let schedule = scheduler ctg in
        let metrics = Noc_sched.Metrics.compute corpus_platform ctg schedule in
        let diagnostics =
          Certify.check ~claimed_energy:metrics.Noc_sched.Metrics.total_energy
            corpus_platform ctg schedule
        in
        let off_rule =
          List.filter (fun (d : Diagnostic.t) -> d.rule <> "sched/deadline") diagnostics
        in
        if off_rule <> [] then
          Alcotest.failf "%s seed %d: unexpected diagnostics: %s" name seed
            (String.concat ", " (rules off_rule));
        Alcotest.(check int)
          (Printf.sprintf "%s seed %d: certifier misses = Metrics misses" name seed)
          (Noc_sched.Metrics.miss_count metrics)
          (count_rule "sched/deadline" diagnostics))
      corpus_schedulers
  done

let eas_schedule seed =
  let ctg = corpus_ctg seed in
  (ctg, (Noc_eas.Eas.schedule corpus_platform ctg).Noc_eas.Eas.schedule)

(* An edge whose transaction actually travels, so mutations below have a
   network leg to corrupt. *)
let multi_hop_edge schedule =
  let found = ref None in
  Array.iter
    (fun (tr : Schedule.transaction) ->
      if !found = None && List.length tr.route >= 2 then found := Some tr.edge)
    (Schedule.transactions schedule);
  match !found with
  | Some e -> e
  | None -> Alcotest.fail "corpus schedule has no multi-hop transaction"

let mutate_placement schedule ~task f =
  let placements = Array.copy (Schedule.placements schedule) in
  placements.(task) <- f placements.(task);
  Schedule.make ~placements ~transactions:(Schedule.transactions schedule)

let test_certifier_rejects_shifted_start () =
  let ctg, schedule = eas_schedule 0 in
  let edge = Noc_ctg.Ctg.edge ctg (multi_hop_edge schedule) in
  (* Slide the sender's whole window far past its recorded transaction:
     the placement itself stays well-formed, so the breakage is pure
     ordering — the data now departs before it is produced. *)
  let mutated =
    mutate_placement schedule ~task:edge.Edge.src (fun p ->
        { p with Schedule.start = p.start +. 1e4; finish = p.finish +. 1e4 })
  in
  let diagnostics = Certify.check corpus_platform ctg mutated in
  Alcotest.(check bool) "precedence violated" true
    (List.mem "sched/precedence" (rules diagnostics));
  Alcotest.(check bool) "not certified" false
    (certifies diagnostics)

let test_certifier_rejects_swapped_pe () =
  let ctg, schedule = eas_schedule 0 in
  let edge = Noc_ctg.Ctg.edge ctg (multi_hop_edge schedule) in
  let n = Noc_noc.Platform.n_pes corpus_platform in
  let mutated =
    mutate_placement schedule ~task:edge.Edge.src (fun p ->
        { p with Schedule.pe = (p.pe + 1) mod n })
  in
  let diagnostics = Certify.check corpus_platform ctg mutated in
  Alcotest.(check bool) "transaction endpoint mismatch" true
    (List.mem "sched/endpoint-pe" (rules diagnostics));
  Alcotest.(check bool) "not certified" false
    (certifies diagnostics)

let test_certifier_rejects_truncated_route () =
  let ctg, schedule = eas_schedule 0 in
  let target = multi_hop_edge schedule in
  let transactions = Array.copy (Schedule.transactions schedule) in
  let tr = transactions.(target) in
  let truncated = List.filteri (fun i _ -> i < List.length tr.route - 1) tr.route in
  transactions.(target) <- { tr with Schedule.route = truncated };
  let mutated =
    Schedule.make ~placements:(Schedule.placements schedule) ~transactions
  in
  let diagnostics = Certify.check corpus_platform ctg mutated in
  Alcotest.(check bool) "route walk broken" true
    (List.mem "sched/route-walk" (rules diagnostics));
  Alcotest.(check bool) "not certified" false
    (certifies diagnostics)

(* ------------------------------------------------------------------ *)
(* Same-tile transfers: empty route and single-tile route are both
   legal, in the certifier, in Validate (the satellite bugfix) and
   through a Schedule_io round trip.                                   *)

let same_tile_fixture route =
  let platform = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:2 in
  let ctg =
    Noc_ctg.Ctg.make_exn
      ~tasks:
        [| task ~id:0 [| 2.; 2.; 2.; 2. |]; task ~id:1 [| 3.; 3.; 3.; 3. |] |]
      ~edges:[| Edge.make ~id:0 ~src:0 ~dst:1 ~volume:64. |]
  in
  let schedule =
    Schedule.make
      ~placements:
        [| { Schedule.task = 0; pe = 1; start = 0.; finish = 2. };
           { Schedule.task = 1; pe = 1; start = 2.; finish = 5. } |]
      ~transactions:
        [| { Schedule.edge = 0; src_pe = 1; dst_pe = 1; route; start = 2.; finish = 2. } |]
  in
  (platform, ctg, schedule)

let test_same_tile_routes_accepted () =
  List.iter
    (fun (name, route) ->
      let platform, ctg, schedule = same_tile_fixture route in
      check_rules (name ^ ": certifier") [] (rules (Certify.check platform ctg schedule));
      Alcotest.(check int)
        (name ^ ": Validate agrees")
        0
        (List.length (Noc_sched.Validate.check platform ctg schedule)))
    [ ("empty route", []); ("single shared tile", [ 1 ]) ]

let test_same_tile_wrong_tile_rejected () =
  let platform, ctg, schedule = same_tile_fixture [ 2 ] in
  check_rules "wrong tile" [ "sched/route-walk" ]
    (rules (Certify.check platform ctg schedule))

let test_same_tile_io_round_trip () =
  let platform, ctg, schedule = same_tile_fixture [] in
  let path = Filename.temp_file "nocsched_same_tile" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Noc_sched.Schedule_io.save ~path schedule;
      match Result.map fst (Noc_sched.Schedule_io.load_full ~path platform ctg) with
      | Error msg -> Alcotest.failf "round trip failed: %s" msg
      | Ok loaded ->
        (* The writer canonicalises the empty route to the shared tile. *)
        Alcotest.(check (list int))
          "canonical single-tile route" [ 1 ]
          (Schedule.transaction loaded 0).Schedule.route;
        check_rules "still certifies" [] (rules (Certify.check platform ctg loaded)))

(* ------------------------------------------------------------------ *)
(* QoS bandwidth-guarantee checker                                     *)

let test_qos_xy_rejects_oversubscribed_flow () =
  (* A flow at twice the link bandwidth cannot fit XY's single route
     0->1->2->3->7->11->15; the checker names the saturated links and
     charges the remainder back onto the canonical route, so all six of
     its links read 200%. *)
  let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
  let bw = Noc_noc.Platform.link_bandwidth platform in
  let report = Qos.check platform [ { Qos.id = 0; src = 0; dst = 15; rate = 2. *. bw } ] in
  Alcotest.(check int) "one infeasible flow" 1
    (count_rule "qos/infeasible-flow" report.Qos.diagnostics);
  Alcotest.(check int) "six overloaded links" 6
    (count_rule "qos/link-overload" report.Qos.diagnostics);
  Alcotest.(check int) "loads cover every directed link"
    (List.length (Noc_noc.Platform.all_links platform))
    (List.length report.Qos.loads);
  let worst =
    List.fold_left (fun acc l -> Float.max acc (Qos.utilization l)) 0. report.Qos.loads
  in
  Alcotest.(check (float 1e-9)) "200% on the canonical route" 2. worst

let test_qos_adaptive_splits_same_flow () =
  (* The same double-bandwidth flow fits once the routing relation
     offers disjoint minimal routes to water-fill: both adaptive models
     accept it with every link at or under 100%. *)
  List.iter
    (fun routing ->
      let platform =
        Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~routing ~cols:4 ~rows:4 ()
      in
      let bw = Noc_noc.Platform.link_bandwidth platform in
      let report =
        Qos.check platform [ { Qos.id = 0; src = 0; dst = 15; rate = 2. *. bw } ]
      in
      check_rules (Turn_model.name routing) [] (rules report.Qos.diagnostics);
      let worst =
        List.fold_left
          (fun acc l -> Float.max acc (Qos.utilization l))
          0. report.Qos.loads
      in
      Alcotest.(check (float 1e-9))
        (Turn_model.name routing ^ " saturates but never overloads")
        1. worst)
    [ Turn_model.West_first; Turn_model.Odd_even ]

let test_qos_flows_of_schedule () =
  let ctg, schedule = eas_schedule 0 in
  let flows = Qos.flows_of_schedule ctg schedule in
  Alcotest.(check bool) "corpus schedule has travelling flows" true (flows <> []);
  List.iter
    (fun (f : Qos.flow) ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d is a positive cross-tile rate" f.id)
        true
        (f.rate > 0. && f.src <> f.dst))
    flows;
  (* Rates scale inversely with the horizon. *)
  let short = Qos.flows_of_schedule ~horizon:10. ctg schedule in
  let long = Qos.flows_of_schedule ~horizon:20. ctg schedule in
  List.iter2
    (fun (a : Qos.flow) (b : Qos.flow) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "flow %d rate halves with doubled horizon" a.id)
        a.rate (2. *. b.rate))
    short long;
  Alcotest.check_raises "non-positive horizon rejected"
    (Invalid_argument "Qos.flows_of_schedule: horizon must be positive")
    (fun () -> ignore (Qos.flows_of_schedule ~horizon:0. ctg schedule))

(* ------------------------------------------------------------------ *)
(* Diagnostics: ordering, exit codes, JSON stability                   *)

let sample_diagnostics () =
  [
    Diagnostic.info ~rule:"platform/unused-link"
      (Diagnostic.Link { Noc_noc.Routing.from_node = 0; to_node = 1 })
      "idle channel";
    Diagnostic.error ~rule:"sched/precedence" (Diagnostic.Edge 3) "data before work";
    Diagnostic.warning ~rule:"sched/energy-mismatch" Diagnostic.Nowhere "off by 1";
    Diagnostic.error ~rule:"ctg/cycle" Diagnostic.Nowhere "loop";
  ]

let test_diagnostic_order_and_exit_codes () =
  let sorted = Diagnostic.sort (sample_diagnostics ()) in
  check_rules "errors first, then rule id"
    [ "ctg/cycle"; "sched/precedence"; "sched/energy-mismatch"; "platform/unused-link" ]
    (rules sorted);
  Alcotest.(check int) "errors exit 2" 2 (Diagnostic.exit_code sorted);
  Alcotest.(check int) "warnings exit 1" 1
    (Diagnostic.exit_code
       [ Diagnostic.warning ~rule:"w" Diagnostic.Nowhere "w" ]);
  Alcotest.(check int) "infos exit 0" 0
    (Diagnostic.exit_code [ Diagnostic.info ~rule:"i" Diagnostic.Nowhere "i" ]);
  Alcotest.(check int) "clean exit 0" 0 (Diagnostic.exit_code [])

let parse_report text =
  match Noc_obs.Json.parse text with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "report does not parse: %s" msg

(* [path] of nested object members, e.g. [["faults"; "count"]]. *)
let rec json_at doc = function
  | [] -> doc
  | key :: rest -> (
    match Noc_obs.Json.member key doc with
    | Some v -> json_at v rest
    | None -> Alcotest.failf "report has no member %S" key)

let check_json what expected actual =
  Alcotest.(check string) what (Noc_obs.Json.to_string expected)
    (Noc_obs.Json.to_string actual)

let test_diagnostic_json_stable () =
  let open Noc_obs.Json in
  let a =
    Diagnostic.to_json ~routing:"odd-even" ~faults:[ "link:5-6"; "pe:1" ]
      (sample_diagnostics ())
  in
  let b =
    Diagnostic.to_json ~routing:"odd-even" ~faults:[ "link:5-6"; "pe:1" ]
      (List.rev (sample_diagnostics ()))
  in
  Alcotest.(check string) "order-independent report" a b;
  let doc = parse_report a in
  check_json "schema tag" (String "nocsched/analysis/v2") (json_at doc [ "schema" ]);
  (* The v2 header records the analyzed routing function and the fault
     set; everything a v1 reader consumed is still present unchanged. *)
  check_json "routing header" (String "odd-even") (json_at doc [ "routing" ]);
  check_json "fault summary"
    (Obj
       [
         ("count", Number 2.);
         ("elements", List [ String "link:5-6"; String "pe:1" ]);
       ])
    (json_at doc [ "faults" ]);
  check_json "summary counts"
    (Obj [ ("errors", Number 2.); ("warnings", Number 1.); ("infos", Number 1.) ])
    (json_at doc [ "summary" ]);
  (match json_at doc [ "diagnostics" ] with
  | List ds ->
    check_rules "diagnostics in canonical order"
      [ "ctg/cycle"; "sched/precedence"; "sched/energy-mismatch"; "platform/unused-link" ]
      (List.map
         (fun d ->
           match member "rule" d with Some (String r) -> r | _ -> "?")
         ds)
  | _ -> Alcotest.fail "diagnostics is not a list");
  let defaults = parse_report (Diagnostic.to_json (sample_diagnostics ())) in
  check_json "default routing is xy" (String "xy") (json_at defaults [ "routing" ]);
  check_json "default fault set is empty"
    (Obj [ ("count", Number 0.); ("elements", List []) ])
    (json_at defaults [ "faults" ])

let test_diagnostic_json_escapes () =
  (* Messages may carry anything a model file or fault spec contained:
     quotes, backslashes, newlines and raw control bytes must survive
     the report verbatim. *)
  let message = "quote \" backslash \\ newline \n bell \007 end" in
  let report =
    Diagnostic.to_json ~routing:"x\"y"
      [ Diagnostic.error ~rule:"ctg/odd" (Diagnostic.Task 4) "%s" message ]
  in
  let doc = parse_report report in
  check_json "routing round-trips" (Noc_obs.Json.String "x\"y")
    (json_at doc [ "routing" ]);
  match json_at doc [ "diagnostics" ] with
  | Noc_obs.Json.List [ d ] ->
    check_json "message round-trips" (Noc_obs.Json.String message)
      (json_at d [ "message" ]);
    check_json "location" (Noc_obs.Json.String "task 4") (json_at d [ "location" ])
  | _ -> Alcotest.fail "expected exactly one diagnostic"

(* ------------------------------------------------------------------ *)
(* Fault-spec parse errors carry character positions (satellite).      *)

let test_fault_parse_positions () =
  let check_error spec expected =
    match Noc_fault.Fault.of_string spec with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" spec
    | Error msg -> Alcotest.(check string) spec expected msg
  in
  check_error "link:12-1x" {|line 1, col 9: bad link endpoint "1x" at character 8|};
  check_error "pe:2@1x:" {|line 1, col 6: bad fault onset time "1x" at character 5|};
  check_error "pe:2@10:9x" {|line 1, col 9: bad fault end time "9x" at character 8|};
  check_error "  pe:-3"
    {|line 1, col 6: bad PE index "-3" at character 5|};
  check_error "link:3-3" {|line 1, col 6: link endpoints must differ "3-3" at character 5|};
  check_error "pe:1@20:10"
    {|line 1, col 6: empty or negative fault window (need 0 <= FROM < UNTIL) "20:10" at character 5|};
  check_error "dma:4" {|line 1, col 1: bad fault element (want pe:N or link:A-B) "dma:4" at character 0|};
  match Noc_fault.Fault_set.of_strings [ "pe:0"; "link:7-7x" ] with
  | Ok _ -> Alcotest.fail "bad set unexpectedly parsed"
  | Error msg ->
    Alcotest.(check string) "set error names the spec"
      {|fault "link:7-7x": line 1, col 8: bad link endpoint "7x" at character 7|} msg

let suite =
  [
    Alcotest.test_case "CDG of chained and short routes is acyclic" `Quick
      test_cdg_chained_and_short_routes;
    Alcotest.test_case "CDG finds a hand-built cycle deterministically" `Quick
      test_cdg_hand_built_cycle;
    Alcotest.test_case "XY on 2x2..8x8 meshes is deadlock-free" `Quick
      test_mesh_xy_deadlock_free;
    QCheck_alcotest.to_alcotest qcheck_mesh_xy_acyclic;
    QCheck_alcotest.to_alcotest qcheck_torus_xy_cycle_law;
    Alcotest.test_case "two link faults bend BFS detours into a cycle" `Quick
      test_degraded_cycle_under_faults;
    Alcotest.test_case "a single link fault detours without a cycle" `Quick
      test_degraded_single_fault_stays_clean;
    Alcotest.test_case "isolating faults report unreachable pairs" `Quick
      test_degraded_unreachable_pairs;
    Alcotest.test_case "adaptive relations certify on 2x2..8x8 meshes" `Quick
      test_adaptive_relations_certified;
    Alcotest.test_case "adaptive models refuse torus topologies" `Quick
      test_adaptive_unsupported_on_torus;
    QCheck_alcotest.to_alcotest qcheck_relation_cdg_acyclic;
    QCheck_alcotest.to_alcotest qcheck_admissible_walks_minimal_and_legal;
    Alcotest.test_case "west-first solves the two-fault detour cycle" `Quick
      test_two_fault_case_solved_by_west_first;
    Alcotest.test_case "odd-even falls back to BFS on the two-fault case" `Quick
      test_two_fault_case_odd_even_falls_back;
    Alcotest.test_case "turn-legal detours are acyclic (13 fault sets)" `Quick
      test_detour_survival_sweep;
    Alcotest.test_case "qos: XY rejects an oversubscribed flow" `Quick
      test_qos_xy_rejects_oversubscribed_flow;
    Alcotest.test_case "qos: adaptive relations split the same flow" `Quick
      test_qos_adaptive_splits_same_flow;
    Alcotest.test_case "qos: flows derived from a schedule" `Quick
      test_qos_flows_of_schedule;
    Alcotest.test_case "lint: empty graph" `Quick test_lint_empty_graph;
    Alcotest.test_case "lint: PE count mismatch" `Quick test_lint_pe_count_mismatch;
    Alcotest.test_case "lint: dangling edge" `Quick test_lint_dangling_edge;
    Alcotest.test_case "lint: duplicate edge" `Quick test_lint_duplicate_edge;
    Alcotest.test_case "lint: dependency cycle" `Quick test_lint_cycle;
    Alcotest.test_case "lint: unreachable task" `Quick test_lint_unreachable_task;
    Alcotest.test_case "lint: no feasible variant" `Quick test_lint_no_feasible_variant;
    Alcotest.test_case "lint: deadline infeasible by critical path" `Quick
      test_lint_deadline_infeasible;
    Alcotest.test_case "lint: generated graphs are error-free" `Quick
      test_lint_generated_graphs_error_free;
    Alcotest.test_case "platform lint: healthy fabrics are clean" `Quick
      test_platform_lint_clean_fabrics;
    Alcotest.test_case "platform lint: bisection bandwidth smell" `Quick
      test_platform_lint_bisection_bandwidth;
    Alcotest.test_case "certifier: golden corpus certifies (50 seeds x 4)" `Quick
      test_golden_corpus_certifies;
    Alcotest.test_case "certifier: rejects a shifted start" `Quick
      test_certifier_rejects_shifted_start;
    Alcotest.test_case "certifier: rejects a swapped PE" `Quick
      test_certifier_rejects_swapped_pe;
    Alcotest.test_case "certifier: rejects a truncated route" `Quick
      test_certifier_rejects_truncated_route;
    Alcotest.test_case "same-tile routes accepted by both checkers" `Quick
      test_same_tile_routes_accepted;
    Alcotest.test_case "same-tile route naming the wrong tile rejected" `Quick
      test_same_tile_wrong_tile_rejected;
    Alcotest.test_case "same-tile schedule round-trips through IO" `Quick
      test_same_tile_io_round_trip;
    Alcotest.test_case "diagnostics sort and exit codes" `Quick
      test_diagnostic_order_and_exit_codes;
    Alcotest.test_case "JSON report escapes round-trip" `Quick
      test_diagnostic_json_escapes;
    Alcotest.test_case "JSON report is stable" `Quick test_diagnostic_json_stable;
    Alcotest.test_case "fault parse errors carry positions" `Quick
      test_fault_parse_positions;
  ]
