(* Tests for the scheduling substrate: Schedule, Resource_state, the
   Fig. 3 communication scheduler and List_sched (the placement step
   every scheduler shares). The Fig. 3 cases pin the frozen list-based
   oracle, Noc_oracle.Rebuild_reference, that List_sched is compared
   with below. *)

module Schedule = Noc_sched.Schedule
module Resource_state = Noc_sched.Resource_state
module Comm_sched = Noc_sched.Comm_sched
module List_sched = Noc_sched.List_sched
module Rebuild_reference = Noc_oracle.Rebuild_reference
module Platform = Noc_noc.Platform
module Degraded = Noc_noc.Degraded
module Interval = Noc_util.Interval

(* Homogeneous 3x3 with bandwidth 100 bits per time unit. *)
let platform =
  Platform.make
    ~topology:(Noc_noc.Topology.mesh ~cols:3 ~rows:3)
    ~pes:(Array.init 9 (fun index -> Noc_noc.Pe.of_kind ~index Noc_noc.Pe.Dsp))
    ~link_bandwidth:100. ()

let iv start stop = Interval.make ~start ~stop

(* ------------------------------------------------------------------ *)
(* Schedule *)

let placement task pe start finish = { Schedule.task; pe; start; finish }

let test_schedule_accessors () =
  let placements = [| placement 0 1 0. 5.; placement 1 1 5. 9. |] in
  let transactions =
    [|
      {
        Schedule.edge = 0;
        src_pe = 1;
        dst_pe = 1;
        route = [ 1 ];
        start = 5.;
        finish = 5.;
      };
    |]
  in
  let s = Schedule.make ~placements ~transactions in
  Alcotest.(check int) "n_tasks" 2 (Schedule.n_tasks s);
  Alcotest.(check (float 0.)) "makespan" 9. (Schedule.makespan s);
  Alcotest.(check int) "tasks on pe 1" 2 (List.length (Schedule.tasks_on_pe s ~pe:1));
  Alcotest.(check int) "tasks on pe 0" 0 (List.length (Schedule.tasks_on_pe s ~pe:0));
  Alcotest.(check int) "same-tile transaction has no links" 0
    (List.length (Schedule.links_of_transaction (Schedule.transaction s 0)))

let test_schedule_order_enforced () =
  Alcotest.(check bool) "misordered placements rejected" true
    (try
       ignore
         (Schedule.make
            ~placements:[| placement 1 0 0. 1. |]
            ~transactions:[||]);
       false
     with Invalid_argument _ -> true)

let test_tasks_on_pe_sorted () =
  let placements = [| placement 0 0 7. 9.; placement 1 0 0. 3.; placement 2 0 3. 7. |] in
  let s = Schedule.make ~placements ~transactions:[||] in
  Alcotest.(check (list int)) "sorted by start" [ 1; 2; 0 ]
    (List.map (fun (p : Schedule.placement) -> p.task) (Schedule.tasks_on_pe s ~pe:0))

(* ------------------------------------------------------------------ *)
(* Resource_state *)

let test_reserve_and_gap () =
  let st = Resource_state.create platform in
  Resource_state.reserve_pe_gap st ~pe:0 [| 0.; 10. |];
  Alcotest.(check (float 0.)) "gap after busy" 10.
    ((let w = [| 0.; 5. |] in Resource_state.earliest_pe_gap st ~pe:0 w; w.(0)));
  Alcotest.(check (float 0.)) "other PE free" 0.
    ((let w = [| 0.; 5. |] in Resource_state.earliest_pe_gap st ~pe:1 w; w.(0)))

(* The start [reserve_route_gap] takes for a window of [duration] at or
   after [after] on [route], rolled back again. *)
let route_gap st route ~after ~duration =
  let mark = Resource_state.mark st in
  let window = [| after; duration |] in
  Resource_state.reserve_route_gap st
    (Array.of_list (List.map (Resource_state.link_table st) route))
    (Array.of_list (List.map (Resource_state.link_id st) route))
    window;
  Resource_state.rollback st mark;
  window.(0)

let test_rollback_undoes_everything () =
  let st = Resource_state.create platform in
  Resource_state.reserve_pe_gap st ~pe:0 [| 0.; 10. |];
  let mark = Resource_state.mark st in
  Resource_state.reserve_pe_gap st ~pe:0 [| 10.; 10. |];
  Resource_state.reserve_link st { Noc_noc.Routing.from_node = 0; to_node = 1 } (iv 0. 5.);
  Resource_state.rollback st mark;
  Alcotest.(check (float 0.)) "pe reservation undone" 10.
    ((let w = [| 0.; 1. |] in Resource_state.earliest_pe_gap st ~pe:0 w; w.(0)));
  Alcotest.(check (float 0.)) "link reservation undone" 0.
    (route_gap st [ { Noc_noc.Routing.from_node = 0; to_node = 1 } ] ~after:0. ~duration:5.)

let test_nested_marks () =
  let st = Resource_state.create platform in
  let outer = Resource_state.mark st in
  Resource_state.reserve_pe_gap st ~pe:2 [| 0.; 1. |];
  let inner = Resource_state.mark st in
  Resource_state.reserve_pe_gap st ~pe:2 [| 1.; 1. |];
  Resource_state.rollback st inner;
  Alcotest.(check (float 0.)) "inner undone, outer kept" 1.
    ((let w = [| 0.; 1. |] in Resource_state.earliest_pe_gap st ~pe:2 w; w.(0)));
  Resource_state.rollback st outer;
  Alcotest.(check (float 0.)) "all undone" 0.
    ((let w = [| 0.; 1. |] in Resource_state.earliest_pe_gap st ~pe:2 w; w.(0)))

let test_route_gap_merges_links () =
  let st = Resource_state.create platform in
  let l01 = { Noc_noc.Routing.from_node = 0; to_node = 1 } in
  let l12 = { Noc_noc.Routing.from_node = 1; to_node = 2 } in
  Resource_state.reserve_link st l01 (iv 0. 4.);
  Resource_state.reserve_link st l12 (iv 6. 10.);
  (* The path is free only in [4, 6) and after 10. *)
  Alcotest.(check (float 0.)) "short window" 4.
    (route_gap st [ l01; l12 ] ~after:0. ~duration:2.);
  Alcotest.(check (float 0.)) "long window" 10.
    (route_gap st [ l01; l12 ] ~after:0. ~duration:3.)

(* ------------------------------------------------------------------ *)
(* Fig. 3 transactions *)

let pending edge src_pe sender_finish bits = { Rebuild_reference.edge; src_pe; sender_finish; bits }

let test_same_tile_transaction () =
  let st = Resource_state.create platform in
  let tr = Rebuild_reference.place_transaction st (pending 0 4 12. 1_000.) ~dst_pe:4 in
  Alcotest.(check (float 0.)) "instantaneous" 12. tr.Schedule.start;
  Alcotest.(check (float 0.)) "zero duration" 12. tr.Schedule.finish;
  Alcotest.(check (list int)) "route is the tile" [ 4 ] tr.Schedule.route

let test_transaction_duration () =
  let st = Resource_state.create platform in
  let tr = Rebuild_reference.place_transaction st (pending 0 0 5. 300.) ~dst_pe:2 in
  Alcotest.(check (float 1e-9)) "starts at sender finish" 5. tr.Schedule.start;
  Alcotest.(check (float 1e-9)) "duration = bits / bandwidth" 8. tr.Schedule.finish;
  Alcotest.(check (list int)) "xy route" [ 0; 1; 2 ] tr.Schedule.route

let test_contention_serialises () =
  let st = Resource_state.create platform in
  let tr1 = Rebuild_reference.place_transaction st (pending 0 0 0. 500.) ~dst_pe:2 in
  (* Second transaction shares link 1->2; must wait for the first. *)
  let tr2 = Rebuild_reference.place_transaction st (pending 1 1 0. 500.) ~dst_pe:2 in
  Alcotest.(check (float 1e-9)) "first at time 0" 0. tr1.Schedule.start;
  Alcotest.(check (float 1e-9)) "second serialised" 5. tr2.Schedule.start

let test_disjoint_routes_parallel () =
  let st = Resource_state.create platform in
  let tr1 = Rebuild_reference.place_transaction st (pending 0 0 0. 500.) ~dst_pe:1 in
  let tr2 = Rebuild_reference.place_transaction st (pending 1 3 0. 500.) ~dst_pe:4 in
  Alcotest.(check (float 0.)) "both at 0 (a)" 0. tr1.Schedule.start;
  Alcotest.(check (float 0.)) "both at 0 (b)" 0. tr2.Schedule.start

let test_fixed_delay_ignores_contention () =
  let st = Resource_state.create platform in
  let tr1 =
    Rebuild_reference.place_transaction ~model:Comm_sched.Fixed_delay st (pending 0 0 0. 500.)
      ~dst_pe:2
  in
  let tr2 =
    Rebuild_reference.place_transaction ~model:Comm_sched.Fixed_delay st (pending 1 1 0. 500.)
      ~dst_pe:2
  in
  Alcotest.(check (float 0.)) "first at 0" 0. tr1.Schedule.start;
  Alcotest.(check (float 0.)) "second also at 0 (conflict ignored)" 0. tr2.Schedule.start

let test_schedule_incoming_sorts_and_drt () =
  let st = Resource_state.create platform in
  (* Two senders finishing at 10 and 2; Fig. 3 sorts by sender finish. *)
  let lct = [ pending 0 0 10. 300.; pending 1 1 2. 300. ] in
  let transactions, drt = Rebuild_reference.schedule_incoming st lct ~dst_pe:2 in
  (match transactions with
  | [ first; second ] ->
    Alcotest.(check int) "earlier sender scheduled first" 1 first.Schedule.edge;
    Alcotest.(check (float 1e-9)) "first starts at its sender finish" 2.
      first.Schedule.start;
    (* Edge 0's route 0->1->2 shares link 1->2 with edge 1 (1->2), which
       occupies [2, 5); sender finish 10 >= 5 so no extra wait. *)
    Alcotest.(check (float 1e-9)) "second at sender finish" 10. second.Schedule.start
  | _ -> Alcotest.fail "expected two transactions");
  Alcotest.(check (float 1e-9)) "DRT is the latest arrival" 13. drt

let test_schedule_incoming_empty () =
  let st = Resource_state.create platform in
  let transactions, drt = Rebuild_reference.schedule_incoming st [] ~dst_pe:0 in
  Alcotest.(check int) "no transactions" 0 (List.length transactions);
  Alcotest.(check (float 0.)) "DRT zero" 0. drt

let test_zero_volume_transaction () =
  let st = Resource_state.create platform in
  let tr = Rebuild_reference.place_transaction st (pending 0 0 3. 0.) ~dst_pe:8 in
  Alcotest.(check (float 0.)) "instantaneous" 3. tr.Schedule.finish

(* ------------------------------------------------------------------ *)
(* List_sched against the frozen list-based path it replaced *)

let diff_platform = Platform.heterogeneous_mesh ~seed:3 ~cols:3 ~rows:3 ()

(* No view, a trivial one, a cut link and a failed PE: both faulty views
   leave every alive pair connected through detours. *)
let diff_views =
  let link = List.nth (Platform.all_links diff_platform) 3 in
  [|
    None;
    Some (Degraded.make diff_platform ~failed_pes:[] ~failed_links:[]);
    Some (Degraded.make diff_platform ~failed_pes:[] ~failed_links:[ link ]);
    Some (Degraded.make diff_platform ~failed_pes:[ 4 ] ~failed_links:[]);
  |]

(* A TGFF graph, or two pipelined frames of one so that tasks carry
   release times. *)
let diff_ctg ~seed ~periodic =
  let params = { Noc_tgff.Params.default with n_tasks = 30; max_layer_width = 5 } in
  let ctg = Noc_tgff.Generate.generate ~params ~platform:diff_platform ~seed in
  if periodic then
    Noc_ctg.Unroll.periodic ctg ~period:(Noc_ctg.Ctg.mean_critical_path ctg /. 2.) ~copies:2
  else ctg

let busy_sets state =
  List.init (Platform.n_pes diff_platform) (fun pe ->
      Noc_util.Timeline.busy (Resource_state.pe_table state pe))
  @ List.map
      (fun link -> Noc_util.Timeline.busy (Resource_state.link_table state link))
      (Platform.all_links diff_platform)

let versions state =
  List.init (Platform.n_pes diff_platform) (fun pe ->
      Noc_util.Timeline.version (Resource_state.pe_table state pe))
  @ List.map
      (fun link -> Noc_util.Timeline.version (Resource_state.link_table state link))
      (Platform.all_links diff_platform)

(* Everything a probe must leave as it found it: the partial schedule
   (its transaction windows included, which the probe's walk writes and
   resets), every table's busy set and version (the probe reserves and
   rolls back), and the journal position (its depth and the entry under
   it, so a net reservation or release both show). *)
let unchanged_by (ls : List_sched.t) f =
  let arrays () =
    ( Array.copy ls.pe,
      Array.copy ls.start,
      Array.copy ls.finish,
      (Array.copy ls.tx_start, Array.copy ls.tx_finish) )
  in
  let before = arrays () and busy = busy_sets ls.state and seen = versions ls.state in
  let head = Resource_state.mark ls.state in
  let result = f () in
  ( result,
    compare (arrays ()) before = 0
    && compare (busy_sets ls.state) busy = 0
    && versions ls.state = seen
    && Resource_state.mark ls.state = head )

(* PE 2's outgoing links fail. Task 2 receives from task 0 on PE 1
   (finish 10, sent first in the Fig. 3 order) and from task 1 on PE 2
   (finish 20): a walk towards PE 0 reserves task 0's window on link
   1->0, then meets a sender that cannot reach PE 0. A probe reads
   [infinity] and rolls the window back; [place] raises, keeping it. *)
let test_probe_unreachable_rolls_back () =
  let mute = 2 in
  let view =
    Degraded.make diff_platform ~failed_pes:[]
      ~failed_links:
        (List.filter
           (fun (l : Noc_noc.Routing.link) -> l.from_node = mute)
           (Platform.all_links diff_platform))
  in
  let b = Noc_ctg.Builder.create ~n_pes:(Platform.n_pes diff_platform) in
  let task time = Noc_ctg.Builder.add_uniform_task b ~time ~energy:1. () in
  let t0 = task 10. and t1 = task 20. and t2 = task 5. in
  Noc_ctg.Builder.connect b ~src:t0 ~dst:t2 ~volume:1000.;
  Noc_ctg.Builder.connect b ~src:t1 ~dst:t2 ~volume:1000.;
  let ls = List_sched.make ~degraded:view diff_platform (Noc_ctg.Builder.build_exn b) in
  List_sched.place ls t0 1;
  List_sched.place ls t1 mute;
  let link = { Noc_noc.Routing.from_node = 1; to_node = 0 } in
  let probed, kept = unchanged_by ls (fun () -> List_sched.probe ls t2 0) in
  Alcotest.(check (float 0.)) "probe reads infinity" infinity probed;
  Alcotest.(check bool) "probe leaves the state" true kept;
  let ready_at, kept = unchanged_by ls (fun () -> (List_sched.data_ready ls t2 0; ls.window.(0))) in
  Alcotest.(check (float 0.)) "data_ready reads infinity" infinity ready_at;
  Alcotest.(check bool) "data_ready leaves the state" true kept;
  Alcotest.(check int) "link 1->0 free after the probes" 0
    (List.length (Noc_util.Timeline.busy (Resource_state.link_table ls.state link)));
  Alcotest.check_raises "place raises"
    (Invalid_argument "List_sched.place: no surviving route from 2 to 0")
    (fun () -> List_sched.place ls t2 0);
  Alcotest.(check int) "place kept the window before it" 1
    (List.length (Noc_util.Timeline.busy (Resource_state.link_table ls.state link)))

(* Places every task of a random graph, in topological order on random
   alive PEs, through List_sched.place and through the frozen
   Rebuild_reference.schedule_incoming + earliest_pe_gap path side by
   side. Before each placement, two probes (one on the PE about to be
   used) must leave the partial schedule, every table and the journal
   as they were; the first must predict the start and its data-ready
   time the reference's. Every ready task's data-ready time on that PE
   must repeat whenever its [data_ready_stamp] does. Placements, transaction
   windows, the final schedules and the tables' busy sets must agree
   exactly. *)
let qcheck_list_sched_matches_reference =
  QCheck.Test.make ~name:"List_sched.place matches schedule_incoming + earliest_pe_gap"
    ~count:40
    QCheck.(quad (int_range 0 10_000) bool (int_range 0 3) bool)
    (fun (seed, periodic, view, fixed) ->
      let degraded = diff_views.(view) in
      let model = if fixed then Comm_sched.Fixed_delay else Comm_sched.Contention_aware in
      let ctg = diff_ctg ~seed ~periodic in
      let alive =
        Array.of_list
          (match degraded with
          | None -> List.init (Platform.n_pes diff_platform) Fun.id
          | Some v -> Degraded.alive_pes v)
      in
      let rng = Noc_util.Prng.create ~seed in
      let ls = List_sched.make ~comm_model:model ?degraded diff_platform ctg in
      let state = Resource_state.create diff_platform in
      let placements = Array.make (Noc_ctg.Ctg.n_tasks ctg) None in
      let transactions = Array.make (Noc_ctg.Ctg.n_edges ctg) None in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let stamped = Hashtbl.create 64 in
      Array.iter
        (fun i ->
          let k = Noc_util.Prng.choose rng alive in
          let other = Noc_util.Prng.choose rng alive in
          (* While a ready task's stamp on [k] holds, so does its
             data-ready time there. *)
          Array.iteri
            (fun j placement ->
              if
                placement = None
                && List.for_all (fun p -> placements.(p) <> None) (Noc_ctg.Ctg.preds ctg j)
              then begin
                let stamp = List_sched.data_ready_stamp ls j k in
                let ready_at = (List_sched.data_ready ls j k; ls.window.(0)) in
                (match Hashtbl.find_opt stamped (j, k) with
                | Some (seen, at) when seen = stamp -> expect (at = ready_at)
                | Some _ | None -> ());
                Hashtbl.replace stamped (j, k) (stamp, ready_at)
              end)
            placements;
          let probed, kept = unchanged_by ls (fun () -> List_sched.probe ls i k) in
          expect kept;
          let ready_at, kept = unchanged_by ls (fun () -> (List_sched.data_ready ls i k; ls.window.(0))) in
          expect kept;
          expect (snd (unchanged_by ls (fun () -> List_sched.probe ls i other)));
          List_sched.place ls i k;
          let pendings =
            List.map
              (fun (e : Noc_ctg.Edge.t) ->
                let p = Option.get placements.(e.src) in
                {
                  Rebuild_reference.edge = e.id;
                  src_pe = p.Schedule.pe;
                  sender_finish = p.Schedule.finish;
                  bits = e.volume;
                })
              (Noc_ctg.Ctg.in_edges ctg i)
          in
          let placed, drt =
            Rebuild_reference.schedule_incoming ~model ?degraded state pendings
              ~dst_pe:k
          in
          let task = Noc_ctg.Ctg.task ctg i in
          let exec = task.Noc_ctg.Task.exec_times.(k) in
          let after =
            match task.Noc_ctg.Task.release with
            | None -> drt
            | Some release -> Float.max drt release
          in
          let window = [| after; exec |] in
          Resource_state.reserve_pe_gap state ~pe:k window;
          let start = window.(0) in
          let finish = start +. exec in
          placements.(i) <- Some { Schedule.task = i; pe = k; start; finish };
          List.iter
            (fun (tr : Schedule.transaction) ->
              let e = tr.edge in
              transactions.(e) <- Some tr;
              expect (ls.tx_start.(e) = tr.start && ls.tx_finish.(e) = tr.finish))
            placed;
          expect (ls.pe.(i) = k && ls.start.(i) = start && ls.finish.(i) = finish);
          expect (probed = start && ready_at = drt))
        (Noc_ctg.Ctg.topological_order ctg);
      let want =
        Schedule.make
          ~placements:(Array.map Option.get placements)
          ~transactions:(Array.map Option.get transactions)
      in
      !ok
      && Noc_sched.Schedule_io.to_string (List_sched.schedule ls)
         = Noc_sched.Schedule_io.to_string want
      && compare (busy_sets ls.state) (busy_sets state) = 0)

let suite =
  [
    Alcotest.test_case "schedule accessors" `Quick test_schedule_accessors;
    Alcotest.test_case "schedule order enforced" `Quick test_schedule_order_enforced;
    Alcotest.test_case "tasks_on_pe sorted" `Quick test_tasks_on_pe_sorted;
    Alcotest.test_case "reserve and gap" `Quick test_reserve_and_gap;
    Alcotest.test_case "rollback undoes everything" `Quick test_rollback_undoes_everything;
    Alcotest.test_case "nested marks" `Quick test_nested_marks;
    Alcotest.test_case "route gap merges links" `Quick test_route_gap_merges_links;
    Alcotest.test_case "same-tile transaction" `Quick test_same_tile_transaction;
    Alcotest.test_case "transaction duration" `Quick test_transaction_duration;
    Alcotest.test_case "contention serialises" `Quick test_contention_serialises;
    Alcotest.test_case "disjoint routes parallel" `Quick test_disjoint_routes_parallel;
    Alcotest.test_case "fixed delay ignores contention" `Quick
      test_fixed_delay_ignores_contention;
    Alcotest.test_case "incoming sorted, DRT" `Quick test_schedule_incoming_sorts_and_drt;
    Alcotest.test_case "incoming empty" `Quick test_schedule_incoming_empty;
    Alcotest.test_case "zero volume" `Quick test_zero_volume_transaction;
    Alcotest.test_case "probe of an unreachable sender rolls back" `Quick
      test_probe_unreachable_rolls_back;
    QCheck_alcotest.to_alcotest qcheck_list_sched_matches_reference;
  ]
