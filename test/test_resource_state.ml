(* Rollback edge cases of the journalled Resource_state.

   The EAS inner loop leans hard on mark/rollback; these tests pin the
   journal semantics the indexed substrate must preserve: empty marks,
   nested marks, empty-interval reserves that skip the journal, and
   marks invalidated by an enclosing rollback — plus the redo law the
   incremental repair search relies on: any mark of one journal can be
   reached again by rollback or redo, through the mark tables and
   reused journal copies the search keeps. *)

module Resource_state = Noc_sched.Resource_state
module Timeline = Noc_util.Timeline
module Interval = Noc_util.Interval

let platform = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:2

let iv start stop = Interval.make ~start ~stop
let link = { Noc_noc.Routing.from_node = 0; to_node = 1 }

(* Reserves [[start, stop)] on a PE through the gap form: every call
   here names a free window, so the earliest gap from [start] is it. *)
let reserve_pe state ~pe start stop =
  Resource_state.reserve_pe_gap state ~pe [| start; stop -. start |]

let busy_count state pe = List.length (Timeline.busy (Resource_state.pe_table state pe))

let test_rollback_to_empty_mark () =
  let state = Resource_state.create platform in
  let m = Resource_state.mark state in
  reserve_pe state ~pe:0 0. 5.;
  reserve_pe state ~pe:1 2. 4.;
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
  reserve_pe state ~pe:0 0. 1.;
  let outer = Resource_state.mark state in
  reserve_pe state ~pe:0 1. 2.;
  let inner = Resource_state.mark state in
  reserve_pe state ~pe:0 2. 3.;
  reserve_pe state ~pe:0 3. 4.;
  Resource_state.rollback state inner;
  Alcotest.(check int) "inner rollback keeps outer reserves" 2 (busy_count state 0);
  Resource_state.rollback state outer;
  Alcotest.(check int) "outer rollback keeps pre-mark reserve" 1 (busy_count state 0);
  Alcotest.(check (float 0.)) "surviving slot is the first one" 1.
    (Timeline.span (Resource_state.pe_table state 0))

let test_empty_interval_reserves_skip_journal () =
  let state = Resource_state.create platform in
  let m = Resource_state.mark state in
  reserve_pe state ~pe:0 3. 3.;
  Resource_state.reserve_link state link (iv 7. 7.);
  (* Empty intervals are ignored by the tables and must not be
     journalled: the mark still compares equal and rollback is a no-op
     rather than an attempt to release a slot that was never stored. *)
  Resource_state.rollback state m;
  reserve_pe state ~pe:0 3. 3.;
  reserve_pe state ~pe:0 0. 5.;
  Resource_state.rollback state m;
  Alcotest.(check int) "only the real reserve was undone" 0 (busy_count state 0)

let test_rollback_after_outer_rollback_raises () =
  let state = Resource_state.create platform in
  let outer = Resource_state.mark state in
  reserve_pe state ~pe:0 0. 1.;
  let inner = Resource_state.mark state in
  reserve_pe state ~pe:0 1. 2.;
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
  reserve_pe state ~pe:0 3. 4.;
  Resource_state.rollback state outer;
  Alcotest.(check int) "later rollback to a valid mark" 0 (busy_count state 0)

let test_unknown_mark_raises () =
  let state = Resource_state.create platform in
  let other = Resource_state.create platform in
  reserve_pe state ~pe:0 0. 1.;
  reserve_pe other ~pe:0 0. 1.;
  let foreign = Resource_state.mark other in
  let valid = Resource_state.mark state in
  reserve_pe state ~pe:0 1. 2.;
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
  reserve_pe state ~pe:0 0. 2.;
  Resource_state.reserve_link state link (iv 0. 2.);
  reserve_pe state ~pe:0 2. 4.;
  Resource_state.reserve_link state link (iv 2. 4.);
  Resource_state.rollback state m;
  Alcotest.(check int) "pe clean" 0 (busy_count state 0);
  Alcotest.(check int) "link clean" 0
    (List.length (Timeline.busy (Resource_state.link_table state link)));
  (* The state is reusable afterwards. *)
  reserve_pe state ~pe:0 0. 10.;
  Alcotest.(check (float 0.)) "gap after rollback" 10.
    ((let w = [| 0.; 1. |] in Resource_state.earliest_pe_gap state ~pe:0 w; w.(0)))

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
    Resource_state.reserve_pe_gap state ~pe:target [| after; duration |]
  else
    let link = links.((target - n) mod Array.length links) in
    let start =
      Noc_oracle.Rebuild_reference.earliest_route_gap state ~route:[ link ] ~after ~duration
    in
    Resource_state.reserve_link state link (iv start (start +. duration))

let raises f = try f (); false with Invalid_argument _ -> true

(* Random reservations with a mark before each, and a copy of the
   journal they leave; then a random walk of rollbacks and redos (from
   that copy) between the marks must show, at every stop, the busy
   lists recorded when that mark was taken. Redo to a mark that does
   not extend the current journal (an older one, or one of a branch the
   journal left) must raise and change nothing. *)
let qcheck_rollback_redo =
  let reservation = QCheck.(triple (int_range 0 11) (int_range 0 30) (int_range 1 6)) in
  let gen =
    QCheck.(pair (list_of_size Gen.(1 -- 25) reservation) (list (int_range 0 100)))
  in
  QCheck.Test.make ~name:"rollback then redo restores every table" ~count:300 gen
    (fun (reservations, walk) ->
      let state = Resource_state.create platform in
      let n = List.length reservations in
      let marks = Resource_state.marks state (n + 1) in
      let seen =
        List.mapi
          (fun i r ->
            Resource_state.set_mark state marks i;
            let seen = tables state in
            reserve_random state r;
            seen)
          reservations
      in
      Resource_state.set_mark state marks n;
      let seen = Array.of_list (seen @ [ tables state ]) in
      let saved = Resource_state.save state in
      let at = ref n in
      let walk_ok =
        List.for_all
          (fun pick ->
            let target = pick mod (n + 1) in
            if target <= !at then Resource_state.rollback_to state marks target
            else Resource_state.redo_to state saved marks target;
            at := target;
            tables state = seen.(target))
          walk
      in
      (* An older mark than the current journal. *)
      Resource_state.rollback_to state marks 0;
      Resource_state.redo_to state saved marks n;
      let older_raises = raises (fun () -> Resource_state.redo_to state saved marks 0) in
      (* A mark of a branch the journal left: back to the first stop,
         then a new reservation. *)
      Resource_state.rollback_to state marks 0;
      reserve_random state (0, 200, 1);
      let branched = tables state in
      let branch_raises = raises (fun () -> Resource_state.redo_to state saved marks n) in
      let unchanged = tables state = branched in
      Resource_state.rollback_to state marks 0;
      walk_ok && older_raises && branch_raises && unchanged && tables state = seen.(0))

(* The table-array fast path against the route-list one: on equal
   states, [reserve_route_gap] over the route's link tables takes the
   window the oracle's fixpoint search finds
   ([Rebuild_reference.earliest_route_gap]) and journals it as
   [reserve_link] over the route does, so a rollback undoes either the
   same way. *)
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
      let window = [| after; duration |] in
      Resource_state.reserve_route_gap fast
        (Array.of_list (List.map (Resource_state.link_table fast) route))
        (Array.of_list (List.map (Resource_state.link_id fast) route))
        window;
      let start = Noc_oracle.Rebuild_reference.earliest_route_gap slow ~route ~after ~duration in
      let interval = iv start (start +. duration) in
      List.iter (fun l -> Resource_state.reserve_link slow l interval) route;
      let same_window = window.(0) = start in
      let same_tables = tables fast = tables slow in
      Resource_state.rollback fast mark_fast;
      Resource_state.rollback slow mark_slow;
      same_window && same_tables && tables fast = tables slow)

(* The journal against a model of it: a stack of (table, interval)
   entries, newest first, whose marks and saved copies are its tails.
   A rollback is valid when the mark's stack is a tail of the live one;
   a redo, when the live stack is a tail of the mark's and the mark's
   of the saved copy's. Marks are taken both as [mark] records and into
   one table of [n_slots] positions ([set_mark], every position at the
   empty journal until set); copies are made by [save] or by
   [save_into] an existing copy, which then holds only the live
   journal, however much longer it was. After any interleaving of
   reservations (PE and route), marks, saves, rollbacks and redos,
   every operation must raise exactly when the model calls it invalid,
   and every table must hold what replaying the model's entries on
   [Timeline_reference] gives. *)
type journal_op =
  | Reserve_pe of int * int * int
  | Reserve_route of int * int * int * int
  | Mark
  | Set_mark of int
  | Save
  | Save_into of int
  | Rollback of int
  | Rollback_to of int
  | Redo_to of int * int

let n_slots = 6

let journal_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map3 (fun pe a d -> Reserve_pe (pe, a, d)) (int_bound 3) (int_bound 30) (int_bound 6));
        ( 4,
          map2
            (fun (src, dst) (a, d) -> Reserve_route (src, dst, a, d))
            (pair (int_bound 3) (int_bound 3))
            (pair (int_bound 30) (int_bound 6)) );
        (2, return Mark);
        (2, map (fun i -> Set_mark i) (int_bound (n_slots - 1)));
        (1, return Save);
        (1, map (fun i -> Save_into i) (int_bound 100));
        (1, map (fun i -> Rollback i) (int_bound 100));
        (2, map (fun i -> Rollback_to i) (int_bound (n_slots - 1)));
        (3, map2 (fun i j -> Redo_to (i, j)) (int_bound 100) (int_bound (n_slots - 1)));
      ])

let pp_journal_op = function
  | Reserve_pe (pe, a, d) -> Printf.sprintf "Reserve_pe(%d,%d,%d)" pe a d
  | Reserve_route (s, t, a, d) -> Printf.sprintf "Reserve_route(%d,%d,%d,%d)" s t a d
  | Mark -> "Mark"
  | Set_mark i -> Printf.sprintf "Set_mark(%d)" i
  | Save -> "Save"
  | Save_into i -> Printf.sprintf "Save_into(%d)" i
  | Rollback i -> Printf.sprintf "Rollback(%d)" i
  | Rollback_to i -> Printf.sprintf "Rollback_to(%d)" i
  | Redo_to (i, j) -> Printf.sprintf "Redo_to(%d,%d)" i j

let rec is_tail tail list = tail == list || match list with [] -> false | _ :: rest -> is_tail tail rest

let qcheck_journal_model =
  let module Reference = Noc_oracle.Timeline_reference in
  let n = Noc_noc.Platform.n_pes platform in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map pp_journal_op ops))
      QCheck.Gen.(list_size (int_range 0 60) journal_op_gen)
  in
  QCheck.Test.make ~name:"journal replays as its surviving reservations" ~count:500 arb
    (fun ops ->
      let state = Resource_state.create platform in
      (* Table [k]: PE [k] below [n], else link [k - n]. *)
      let table k =
        if k < n then Resource_state.pe_table state k
        else Resource_state.link_table state links.(k - n)
      in
      let link_key l =
        let rec find i = if links.(i) = l then n + i else find (i + 1) in
        find 0
      in
      let live = ref [] and marks = ref [||] and saves = ref [||] in
      let table_marks = Resource_state.marks state n_slots in
      let table_stacks = Array.make n_slots [] in
      let pick a i = a.(i mod Array.length a) in
      let agrees valid f =
        let before = tables state in
        let raised = raises f in
        raised = not valid && ((not raised) || tables state = before)
      in
      let step = function
        | Reserve_pe (pe, a, d) ->
          let after = float_of_int a and duration = float_of_int d in
          let window = [| after; duration |] in
          Resource_state.reserve_pe_gap state ~pe window;
          let start = window.(0) in
          if d > 0 then live := (pe, iv start (start +. duration)) :: !live;
          true
        | Reserve_route (src, dst, a, d) ->
          let route = Noc_noc.Platform.route_links platform ~src ~dst in
          let duration = float_of_int d in
          let window = [| float_of_int a; duration |] in
          Resource_state.reserve_route_gap state
            (Array.of_list (List.map (Resource_state.link_table state) route))
            (Array.of_list (List.map (Resource_state.link_id state) route))
            window;
          let start = window.(0) in
          if d > 0 then
            List.iter
              (fun l -> live := (link_key l, iv start (start +. duration)) :: !live)
              route;
          true
        | Mark ->
          marks := Array.append !marks [| (Resource_state.mark state, !live) |];
          true
        | Set_mark i ->
          Resource_state.set_mark state table_marks i;
          table_stacks.(i) <- !live;
          true
        | Save ->
          saves := Array.append !saves [| (Resource_state.save state, ref !live) |];
          true
        | Save_into i when Array.length !saves > 0 ->
          let saved, saved_stack = pick !saves i in
          Resource_state.save_into state saved;
          saved_stack := !live;
          true
        | Rollback i when Array.length !marks > 0 ->
          let m, stack = pick !marks i in
          let valid = is_tail stack !live in
          let ok = agrees valid (fun () -> Resource_state.rollback state m) in
          if valid then live := stack;
          ok
        | Rollback_to i ->
          let stack = table_stacks.(i) in
          let valid = is_tail stack !live in
          let ok = agrees valid (fun () -> Resource_state.rollback_to state table_marks i) in
          if valid then live := stack;
          ok
        | Redo_to (i, j) when Array.length !saves > 0 ->
          let saved, saved_stack = pick !saves i and stack = table_stacks.(j) in
          let valid = is_tail !live stack && is_tail stack !saved_stack in
          let ok =
            agrees valid (fun () -> Resource_state.redo_to state saved table_marks j)
          in
          if valid then live := stack;
          ok
        | Save_into _ | Rollback _ | Redo_to _ -> true
      in
      let replay () =
        let refs = Array.init (n + Array.length links) (fun _ -> Reference.create ()) in
        List.iter (fun (k, interval) -> Reference.reserve refs.(k) interval) (List.rev !live);
        List.for_all
          (fun k -> Timeline.busy (table k) = Reference.busy refs.(k))
          (List.init (Array.length refs) Fun.id)
      in
      List.for_all (fun op -> step op && replay ()) ops)

(* A slot that no longer holds the interval: a reservation before it
   shifted it along, or it was released already. A one-entry journal
   stretch returns 0 when it released the slot, 1 when it did not. *)
let release tl i start stop =
  Timeline.release_slots [| tl |] ~ids:[| 0 |] ~slots:[| i |] ~starts:[| start |]
    ~stops:[| stop |] 0 1

let test_release_slot_checks () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 10. 20.);
  Timeline.reserve tl (iv 0. 5.);
  let busy = Timeline.busy tl and version = Timeline.version tl in
  let unchanged () = Timeline.busy tl = busy && Timeline.version tl = version in
  Alcotest.(check int) "shifted slot refused" 1 (release tl 0 10. 20.);
  Alcotest.(check bool) "table unchanged" true (unchanged ());
  Alcotest.(check int) "slot past the end refused" 1 (release tl 2 10. 20.);
  Alcotest.(check bool) "table still unchanged" true (unchanged ());
  Alcotest.(check int) "live slot released" 0 (release tl 1 10. 20.);
  Alcotest.(check int) "released slot refused" 1 (release tl 1 10. 20.);
  Alcotest.(check (list (float 0.))) "only the live slot is left" [ 0.; 5. ]
    (List.concat_map (fun (i : Interval.t) -> [ i.start; i.stop ]) (Timeline.busy tl))

(* A shorter journal saved into a longer copy: the copy's entries above
   the new depth are stale, so a redo to a mark set while the copy was
   longer must raise and change nothing, while a mark within the new
   copy still redoes. *)
let test_save_into_shorter_copy () =
  let state = Resource_state.create platform in
  let marks = Resource_state.marks state 4 in
  Resource_state.set_mark state marks 0;
  reserve_pe state ~pe:0 0. 1.;
  Resource_state.set_mark state marks 1;
  reserve_pe state ~pe:0 1. 2.;
  reserve_pe state ~pe:1 0. 3.;
  Resource_state.set_mark state marks 2;
  let saved = Resource_state.save state in
  Resource_state.rollback_to state marks 1;
  Resource_state.save_into state saved;
  Resource_state.rollback_to state marks 0;
  let before = tables state in
  Alcotest.(check bool) "redo above the new copy's depth raises" true
    (raises (fun () -> Resource_state.redo_to state saved marks 2));
  Alcotest.(check bool) "the raise changed nothing" true (tables state = before);
  Resource_state.redo_to state saved marks 1;
  Alcotest.(check int) "redo within the copy" 1 (busy_count state 0);
  (* Reserving past the copy again and saving it grows the copy back. *)
  reserve_pe state ~pe:2 0. 1.;
  Resource_state.set_mark state marks 3;
  Resource_state.save_into state saved;
  Resource_state.rollback_to state marks 0;
  Resource_state.redo_to state saved marks 3;
  Alcotest.(check int) "redo to the grown copy's end" 1 (busy_count state 2);
  Alcotest.(check bool) "the old mark names a branch the copy left" true
    (raises (fun () -> Resource_state.redo_to state saved marks 2))

(* Mark tables and copies belong to one state: setting, rolling back or
   redoing through another's raises, before anything is touched. *)
let test_marks_and_copies_of_another_state () =
  let state = Resource_state.create platform and other = Resource_state.create platform in
  let own = Resource_state.marks state 1 and foreign = Resource_state.marks other 1 in
  Resource_state.set_mark state own 0;
  Resource_state.set_mark other foreign 0;
  let saved = Resource_state.save state and foreign_saved = Resource_state.save other in
  reserve_pe state ~pe:0 0. 1.;
  let before = tables state in
  Alcotest.(check bool) "set_mark into another state's table raises" true
    (raises (fun () -> Resource_state.set_mark state foreign 0));
  Alcotest.(check bool) "save_into another state's copy raises" true
    (raises (fun () -> Resource_state.save_into state foreign_saved));
  Alcotest.(check bool) "rollback_to another state's mark raises" true
    (raises (fun () -> Resource_state.rollback_to state foreign 0));
  Alcotest.(check bool) "redo_to from another state's copy raises" true
    (raises (fun () -> Resource_state.redo_to state foreign_saved own 0));
  Alcotest.(check bool) "nothing changed" true (tables state = before);
  Resource_state.rollback_to state own 0;
  Resource_state.save_into state saved;
  Alcotest.(check int) "the state's own mark still rolls back" 0 (busy_count state 0)

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
    QCheck_alcotest.to_alcotest qcheck_journal_model;
    Alcotest.test_case "release_slot checks its slot" `Quick test_release_slot_checks;
    Alcotest.test_case "save_into a shorter journal" `Quick test_save_into_shorter_copy;
    Alcotest.test_case "marks and copies of another state" `Quick
      test_marks_and_copies_of_another_state;
  ]
