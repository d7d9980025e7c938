(* Rollback edge cases of the journalled Resource_state.

   The EAS inner loop leans hard on mark/rollback; these tests pin the
   journal semantics the indexed substrate must preserve: empty marks,
   nested marks, empty-interval reserves that skip the journal, and
   marks invalidated by an enclosing rollback — plus the redo law the
   incremental repair search relies on: any mark of one journal can be
   reached again by rollback or redo. *)

module Resource_state = Noc_sched.Resource_state
module Timeline = Noc_util.Timeline
module Interval = Noc_util.Interval

let platform = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:2

let iv start stop = Interval.make ~start ~stop
let link = { Noc_noc.Routing.from_node = 0; to_node = 1 }

let busy_count state pe = List.length (Timeline.busy (Resource_state.pe_table state pe))

let test_rollback_to_empty_mark () =
  let state = Resource_state.create platform in
  let m = Resource_state.mark state in
  Resource_state.reserve_pe state ~pe:0 (iv 0. 5.);
  Resource_state.reserve_pe state ~pe:1 (iv 2. 4.);
  Resource_state.reserve_link state link (iv 0. 1.);
  Resource_state.rollback state m;
  Alcotest.(check int) "pe 0 empty" 0 (busy_count state 0);
  Alcotest.(check int) "pe 1 empty" 0 (busy_count state 1);
  Alcotest.(check int) "link empty" 0
    (List.length (Timeline.busy (Resource_state.link_table state link)))

let test_rollback_empty_mark_noop () =
  let state = Resource_state.create platform in
  let m = Resource_state.mark state in
  (* Nothing reserved since the mark: rollback must be a no-op. *)
  Resource_state.rollback state m;
  Resource_state.rollback state m;
  Alcotest.(check int) "still empty" 0 (busy_count state 0)

let test_nested_marks () =
  let state = Resource_state.create platform in
  Resource_state.reserve_pe state ~pe:0 (iv 0. 1.);
  let outer = Resource_state.mark state in
  Resource_state.reserve_pe state ~pe:0 (iv 1. 2.);
  let inner = Resource_state.mark state in
  Resource_state.reserve_pe state ~pe:0 (iv 2. 3.);
  Resource_state.reserve_pe state ~pe:0 (iv 3. 4.);
  Resource_state.rollback state inner;
  Alcotest.(check int) "inner rollback keeps outer reserves" 2 (busy_count state 0);
  Resource_state.rollback state outer;
  Alcotest.(check int) "outer rollback keeps pre-mark reserve" 1 (busy_count state 0);
  Alcotest.(check (float 0.)) "surviving slot is the first one" 1.
    (Timeline.span (Resource_state.pe_table state 0))

let test_empty_interval_reserves_skip_journal () =
  let state = Resource_state.create platform in
  let m = Resource_state.mark state in
  Resource_state.reserve_pe state ~pe:0 (iv 3. 3.);
  Resource_state.reserve_link state link (iv 7. 7.);
  (* Empty intervals are ignored by the tables and must not be
     journalled: the mark still compares equal and rollback is a no-op
     rather than an attempt to release a slot that was never stored. *)
  Resource_state.rollback state m;
  Resource_state.reserve_pe state ~pe:0 (iv 3. 3.);
  Resource_state.reserve_pe state ~pe:0 (iv 0. 5.);
  Resource_state.rollback state m;
  Alcotest.(check int) "only the real reserve was undone" 0 (busy_count state 0)

let test_rollback_after_outer_rollback_raises () =
  let state = Resource_state.create platform in
  let outer = Resource_state.mark state in
  Resource_state.reserve_pe state ~pe:0 (iv 0. 1.);
  let inner = Resource_state.mark state in
  Resource_state.reserve_pe state ~pe:0 (iv 1. 2.);
  Resource_state.rollback state outer;
  (* [inner] described a journal suffix that no longer exists; rolling
     back to it must raise rather than silently release foreign slots. *)
  Alcotest.(check bool) "stale inner mark raises" true
    (try
       Resource_state.rollback state inner;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "the raise released nothing" 0 (busy_count state 0);
  (* The state still works: a fresh reservation rolls back to [outer]. *)
  Resource_state.reserve_pe state ~pe:0 (iv 3. 4.);
  Resource_state.rollback state outer;
  Alcotest.(check int) "later rollback to a valid mark" 0 (busy_count state 0)

let test_unknown_mark_raises () =
  let state = Resource_state.create platform in
  let other = Resource_state.create platform in
  Resource_state.reserve_pe state ~pe:0 (iv 0. 1.);
  Resource_state.reserve_pe other ~pe:0 (iv 0. 1.);
  let foreign = Resource_state.mark other in
  let valid = Resource_state.mark state in
  Resource_state.reserve_pe state ~pe:0 (iv 1. 2.);
  Alcotest.(check bool) "foreign mark raises" true
    (try
       Resource_state.rollback state foreign;
       false
     with Invalid_argument _ -> true);
  (* Checked before anything is released: the state is unchanged and a
     rollback to a valid mark still finds every slot it journalled. *)
  Alcotest.(check int) "the raise released nothing" 2 (busy_count state 0);
  Resource_state.rollback state valid;
  Alcotest.(check int) "later rollback to a valid mark" 1 (busy_count state 0)

let test_rollback_interleaved_resources () =
  (* Rollback releases across PE and link tables in reverse reservation
     order; interleaving the two must not confuse the journal. *)
  let state = Resource_state.create platform in
  let m = Resource_state.mark state in
  Resource_state.reserve_pe state ~pe:0 (iv 0. 2.);
  Resource_state.reserve_link state link (iv 0. 2.);
  Resource_state.reserve_pe state ~pe:0 (iv 2. 4.);
  Resource_state.reserve_link state link (iv 2. 4.);
  Resource_state.rollback state m;
  Alcotest.(check int) "pe clean" 0 (busy_count state 0);
  Alcotest.(check int) "link clean" 0
    (List.length (Timeline.busy (Resource_state.link_table state link)));
  (* The state is reusable afterwards. *)
  Resource_state.reserve_pe state ~pe:0 (iv 0. 10.);
  Alcotest.(check (float 0.)) "gap after rollback" 10.
    (Resource_state.earliest_pe_gap state ~pe:0 ~after:0. ~duration:1.)

(* Every PE and link table's busy list: the observable state. *)
let tables state =
  let n = Noc_noc.Platform.n_pes platform in
  List.init n (fun pe -> Timeline.busy (Resource_state.pe_table state pe))
  @ List.map
      (fun l -> Timeline.busy (Resource_state.link_table state l))
      (Noc_noc.Platform.all_links platform)

let links = Array.of_list (Noc_noc.Platform.all_links platform)

(* Reserves into the earliest free slot, so random requests never
   overlap. [target] < n_pes picks a PE, above that a link. *)
let reserve_random state (target, after, duration) =
  let n = Noc_noc.Platform.n_pes platform in
  let after = float_of_int after and duration = float_of_int duration in
  if target < n then
    let start = Resource_state.earliest_pe_gap state ~pe:target ~after ~duration in
    Resource_state.reserve_pe state ~pe:target (iv start (start +. duration))
  else
    let link = links.((target - n) mod Array.length links) in
    let start = Resource_state.earliest_route_gap state ~route:[ link ] ~after ~duration in
    Resource_state.reserve_link state link (iv start (start +. duration))

let raises f = try f (); false with Invalid_argument _ -> true

(* Random reservations with a mark before each; then a random walk of
   rollbacks and redos between the marks must show, at every stop, the
   busy lists recorded when that mark was taken. Redo to a mark that
   does not extend the current journal (an older one, or one of a
   branch the journal left) must raise and change nothing. *)
let qcheck_rollback_redo =
  let reservation = QCheck.(triple (int_range 0 11) (int_range 0 30) (int_range 1 6)) in
  let gen =
    QCheck.(pair (list_of_size Gen.(1 -- 25) reservation) (list (int_range 0 100)))
  in
  QCheck.Test.make ~name:"rollback then redo restores every table" ~count:300 gen
    (fun (reservations, walk) ->
      let state = Resource_state.create platform in
      let stops =
        List.map
          (fun r ->
            let m = Resource_state.mark state in
            let seen = tables state in
            reserve_random state r;
            (m, seen))
          reservations
      in
      let stops = Array.of_list (stops @ [ (Resource_state.mark state, tables state) ]) in
      let at = ref (Array.length stops - 1) in
      let walk_ok =
        List.for_all
          (fun pick ->
            let target = pick mod Array.length stops in
            let m, seen = stops.(target) in
            if target <= !at then Resource_state.rollback state m
            else Resource_state.redo state m;
            at := target;
            tables state = seen)
          walk
      in
      let first, seen_first = stops.(0) in
      let last, _ = stops.(Array.length stops - 1) in
      (* An older mark than the current journal. *)
      Resource_state.rollback state first;
      Resource_state.redo state last;
      let older_raises = raises (fun () -> Resource_state.redo state first) in
      (* A mark of a branch the journal left: back to the first stop,
         then a new reservation. *)
      Resource_state.rollback state first;
      reserve_random state (0, 200, 1);
      let branched = tables state in
      let branch_raises = raises (fun () -> Resource_state.redo state last) in
      let unchanged = tables state = branched in
      Resource_state.rollback state first;
      walk_ok && older_raises && branch_raises && unchanged && tables state = seen_first)

(* The table-array fast path against the route-list one: on equal
   states, [reserve_route_gap] over the route's link tables takes the
   window [earliest_route_gap] finds and journals it as [reserve_link]
   over the route does, so a rollback undoes either the same way. *)
let qcheck_reserve_route_gap =
  let reservation = QCheck.(triple (int_range 0 11) (int_range 0 30) (int_range 1 6)) in
  let gen =
    QCheck.(
      pair (list_of_size Gen.(0 -- 25) reservation)
        (quad (int_range 0 3) (int_range 0 3) (int_range 0 40) (int_range 0 6)))
  in
  QCheck.Test.make ~name:"reserve_route_gap equals a route-list reservation" ~count:300
    gen (fun (reservations, (src, dst, after, duration)) ->
      let fast = Resource_state.create platform and slow = Resource_state.create platform in
      List.iter
        (fun r ->
          reserve_random fast r;
          reserve_random slow r)
        reservations;
      let mark_fast = Resource_state.mark fast and mark_slow = Resource_state.mark slow in
      let after = float_of_int after and duration = float_of_int duration in
      let route = Noc_noc.Platform.route_links platform ~src ~dst in
      let window =
        Resource_state.reserve_route_gap fast
          (Array.of_list (List.map (Resource_state.link_table fast) route))
          ~after ~duration
      in
      let start = Resource_state.earliest_route_gap slow ~route ~after ~duration in
      let interval = iv start (start +. duration) in
      List.iter (fun l -> Resource_state.reserve_link slow l interval) route;
      let same_window = Interval.equal window interval in
      let same_tables = tables fast = tables slow in
      Resource_state.rollback fast mark_fast;
      Resource_state.rollback slow mark_slow;
      same_window && same_tables && tables fast = tables slow)

let suite =
  [
    Alcotest.test_case "rollback to empty mark" `Quick test_rollback_to_empty_mark;
    Alcotest.test_case "rollback of empty mark is no-op" `Quick
      test_rollback_empty_mark_noop;
    Alcotest.test_case "nested marks" `Quick test_nested_marks;
    Alcotest.test_case "empty-interval reserves skip journal" `Quick
      test_empty_interval_reserves_skip_journal;
    Alcotest.test_case "stale mark after outer rollback raises" `Quick
      test_rollback_after_outer_rollback_raises;
    Alcotest.test_case "unknown mark raises" `Quick test_unknown_mark_raises;
    Alcotest.test_case "interleaved PE/link rollback" `Quick
      test_rollback_interleaved_resources;
    QCheck_alcotest.to_alcotest qcheck_rollback_redo;
    QCheck_alcotest.to_alcotest qcheck_reserve_route_gap;
  ]
