(* Differential tests: the indexed Timeline against the naive
   Timeline_reference model.

   Random operation traces — reserve (possibly overlapping, possibly
   empty), reserve at a given slot index (the right one or a neighbour)
   and release of a live slot at its index or at a wrong one (each a
   one-entry journal stretch), gap queries,
   utilisation, span — are replayed against both
   implementations; every observation must agree, including which
   operations raise. Values are
   drawn from a small integer grid so collisions, touching intervals and
   exact-duration fits all occur constantly. *)

module Timeline = Noc_util.Timeline
module Reference = Noc_oracle.Timeline_reference
module Rebuild_reference = Noc_oracle.Rebuild_reference
module Interval = Noc_util.Interval

type op =
  | Reserve of int * int (* start, length (0 = empty interval) *)
  | Reserve_at of int * int * int (* start, length, slot index offset *)
  | Release_nth of int * int
    (* index into the live busy list, mod its size; slot index offset *)
  | Gap of int * int (* after, duration *)
  | Is_free of int * int
  | Utilisation of int (* horizon - 1 *)
  | Span

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun s l -> Reserve (s, l)) (int_bound 60) (int_bound 6));
        (2, map3 (fun s l o -> Reserve_at (s, l, o)) (int_bound 60) (int_bound 6)
              (int_range (-1) 1));
        (2, map2 (fun i o -> Release_nth (i, o)) (int_bound 1000)
              (frequency [ (3, return 0); (1, int_range (-1) 1) ]));
        (4, map2 (fun a d -> Gap (a, d)) (int_bound 70) (int_bound 8));
        (2, map2 (fun a d -> Is_free (a, d)) (int_bound 70) (int_bound 8));
        (1, map (fun h -> Utilisation h) (int_bound 80));
        (1, return Span);
      ])

let pp_op = function
  | Reserve (s, l) -> Printf.sprintf "Reserve(%d,%d)" s l
  | Reserve_at (s, l, o) -> Printf.sprintf "Reserve_at(%d,%d,%d)" s l o
  | Release_nth (i, o) -> Printf.sprintf "Release_nth(%d,%d)" i o
  | Gap (a, d) -> Printf.sprintf "Gap(%d,%d)" a d
  | Is_free (a, d) -> Printf.sprintf "Is_free(%d,%d)" a d
  | Utilisation h -> Printf.sprintf "Utilisation(%d)" h
  | Span -> "Span"

let trace_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 0 60) op_gen)

let iv start stop = Interval.make ~start ~stop

let same_busy tl rf =
  let a = Timeline.busy tl and b = Reference.busy rf in
  List.length a = List.length b && List.for_all2 Interval.equal a b

let raises f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* Replays [ops] on both implementations; returns false (qcheck failure)
   at the first disagreement. *)
let agree ops =
  let tl = Timeline.create () and rf = Reference.create () in
  (* The one-entry journal stretches of [Reserve_at] and [Release_nth]. *)
  let ids = [| 0 |] in
  let ok = ref true in
  List.iter
    (fun op ->
      if !ok then begin
        (match op with
        | Reserve (s, l) ->
          let interval = iv (float_of_int s) (float_of_int (s + l)) in
          let raised_tl =
            try
              Timeline.reserve tl interval;
              false
            with Invalid_argument _ -> true
          in
          let raised_rf =
            try
              Reference.reserve rf interval;
              false
            with Invalid_argument _ -> true
          in
          if raised_tl <> raised_rf then ok := false
        | Reserve_at (s, l, o) ->
          let starts = [| float_of_int s |] and stops = [| float_of_int (s + l) |] in
          let slots = [| Timeline.slot tl starts.(0) + o |] in
          if
            Timeline.reserve_slots [| tl |] ~ids ~slots ~starts ~stops 0 1
            <> Reference.reserve_slots [| rf |] ~ids ~slots ~starts ~stops 0 1
          then ok := false
        | Release_nth (i, o) ->
          let live = Reference.busy rf in
          (match live with
          | [] -> ()
          | _ ->
            let nth = i mod List.length live in
            let { Interval.start; stop } = List.nth live nth in
            let starts = [| start |] and stops = [| stop |] and slots = [| nth + o |] in
            if
              Timeline.release_slots [| tl |] ~ids ~slots ~starts ~stops 0 1
              <> Reference.release_slots [| rf |] ~ids ~slots ~starts ~stops 0 1
            then ok := false)
        | Gap (a, d) ->
          let after = float_of_int a and duration = float_of_int d in
          if
            Timeline.earliest_gap tl ~after ~duration
            <> Reference.earliest_gap rf ~after ~duration
          then ok := false
        | Is_free (a, d) ->
          let interval = iv (float_of_int a) (float_of_int (a + d)) in
          if Timeline.is_free tl interval <> Reference.is_free rf interval then
            ok := false
        | Utilisation h ->
          let horizon = float_of_int (h + 1) in
          if
            Float.abs
              (Timeline.utilisation tl ~horizon
              -. Reference.utilisation rf ~horizon)
            > 1e-12
          then ok := false
        | Span -> if Timeline.span tl <> Reference.span rf then ok := false);
        if not (same_busy tl rf) then ok := false
      end)
    ops;
  !ok

let qcheck_traces =
  QCheck.Test.make ~name:"indexed Timeline ≡ reference on random traces"
    ~count:1000 trace_arb agree

(* Append-heavy traces, the scheduler's dominant pattern: every
   reservation starts at or after the last stop (touching it or not),
   so its slot is the end of the table, which the tail check answers
   without a search; queries land just before, at or after the last
   stop, so both sides of that check run; and stretches of the newest
   reservations are released newest-first and reserved again through
   [release_slots]/[reserve_slots], as a journal's rollback and redo
   do. Every observation must match the reference. *)
type append_op =
  | Append of int * int * bool (* gap after the last stop, length, through [reserve_slots] *)
  | Query of int * int (* after = last stop + offset, duration *)
  | Undo of int * bool (* how many of the newest, then redo them *)

let append_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun g l v -> Append (g, l, v)) (int_bound 3) (int_range 1 6) bool);
        (4, map2 (fun o d -> Query (o, d)) (int_range (-4) 3) (int_bound 8));
        (1, map2 (fun k r -> Undo (k, r)) (int_bound 6) bool);
      ])

let pp_append_op = function
  | Append (g, l, v) -> Printf.sprintf "Append(%d,%d,%b)" g l v
  | Query (o, d) -> Printf.sprintf "Query(%d,%d)" o d
  | Undo (k, r) -> Printf.sprintf "Undo(%d,%b)" k r

let append_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_append_op ops))
    QCheck.Gen.(list_size (int_range 0 120) append_op_gen)

let append_agree ops =
  let tl = Timeline.create () and rf = Reference.create () in
  let tls = [| tl |] and rfs = [| rf |] and ids = Array.make 128 0 in
  (* The live reservations, oldest first, as a journal holds them. *)
  let slots = Array.make 128 0 and starts = Array.make 128 0. and stops = Array.make 128 0. in
  let depth = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  List.iter
    (fun op ->
      if !ok then begin
        let last = Timeline.span tl in
        (match op with
        | Append (g, l, via_slot) ->
          let start = last +. float_of_int g in
          let d = !depth in
          starts.(d) <- start;
          stops.(d) <- start +. float_of_int l;
          slots.(d) <- Timeline.slot tl start;
          check (slots.(d) = List.length (Reference.busy rf));
          if via_slot then
            check (Timeline.reserve_slots tls ~ids ~slots ~starts ~stops d (d + 1) = d + 1)
          else Timeline.reserve tl (iv start stops.(d));
          Reference.reserve_slot rf slots.(d) ~starts ~stops d;
          incr depth
        | Query (o, d) ->
          let after = last +. float_of_int o and duration = float_of_int d in
          check
            (Timeline.earliest_gap tl ~after ~duration
            = Reference.earliest_gap rf ~after ~duration);
          let interval = iv after (after +. duration) in
          check (Timeline.is_free tl interval = Reference.is_free rf interval)
        | Undo (k, redo) ->
          let hi = !depth in
          let lo = Int.max 0 (hi - k) in
          check (Timeline.release_slots tls ~ids ~slots ~starts ~stops lo hi = lo);
          check (Reference.release_slots rfs ~ids ~slots ~starts ~stops lo hi = lo);
          depth := lo;
          if redo then begin
            check (same_busy tl rf);
            check (Timeline.reserve_slots tls ~ids ~slots ~starts ~stops lo hi = hi);
            check (Reference.reserve_slots rfs ~ids ~slots ~starts ~stops lo hi = hi);
            depth := hi
          end);
        check (same_busy tl rf)
      end)
    ops;
  !ok

let qcheck_append =
  QCheck.Test.make ~name:"append-heavy traces: tail fast path ≡ reference" ~count:1000
    append_arb append_agree

(* A stretch stops at the first entry its single-slot form rejects and
   returns where it stopped, leaving the rest in place. *)
let test_slot_ranges_stop () =
  let tl = Timeline.create () in
  let tls = [| tl |] and ids = [| 0; 0; 0 |] in
  let slots = [| 0; 1; 2 |] and starts = [| 0.; 10.; 20. |] and stops = [| 5.; 15.; 25. |] in
  Alcotest.(check int) "every entry reserved" 3
    (Timeline.reserve_slots tls ~ids ~slots ~starts ~stops 0 3);
  (* Entry 1 claims slot 0, which holds entry 0. *)
  let bad = [| 0; 0; 2 |] in
  Alcotest.(check int) "stops above the bad entry" 2
    (Timeline.release_slots tls ~ids ~slots:bad ~starts ~stops 0 3);
  Alcotest.(check int) "two slots left" 2 (List.length (Timeline.busy tl));
  Alcotest.(check int) "redo stops at the bad entry" 1
    (Timeline.reserve_slots tls ~ids ~slots:[| 0; 0; 2 |] ~starts ~stops 1 3);
  Alcotest.(check int) "nothing reserved" 2 (List.length (Timeline.busy tl))

(* Multi-timeline operations: reserve across several tables, then compare
   merged_busy and the earliest common gap (the reference's, and the
   fixpoint of single-table searches), and reserve the gap with
   reserve_gap_multi. *)
let multi_arb =
  QCheck.make
    QCheck.Gen.(
      pair
        (list_size (int_range 0 40)
           (triple (int_bound 2) (int_bound 60) (int_range 1 6)))
        (pair (int_bound 70) (int_bound 8)))

let qcheck_multi =
  QCheck.Test.make ~name:"merged_busy / earliest_gap_multi ≡ reference"
    ~count:1000 multi_arb (fun (reserves, (a, d)) ->
      let tls = Array.init 3 (fun _ -> Timeline.create ()) in
      let rfs = Array.init 3 (fun _ -> Reference.create ()) in
      List.iter
        (fun (which, s, l) ->
          let interval = iv (float_of_int s) (float_of_int (s + l)) in
          if Timeline.is_free tls.(which) interval then begin
            Timeline.reserve tls.(which) interval;
            Reference.reserve rfs.(which) interval
          end)
        reserves;
      let after = float_of_int a and duration = float_of_int d in
      let merged_tl = Timeline.merged_busy (Array.to_list tls) ~after in
      let merged_rf = Reference.merged_busy (Array.to_list rfs) ~after in
      let gap = Reference.earliest_gap_multi (Array.to_list rfs) ~after ~duration in
      let same_merge =
        List.length merged_tl = List.length merged_rf
        && List.for_all2 Interval.equal merged_tl merged_rf
      in
      let same_gap =
        Rebuild_reference.earliest_common_gap (Array.to_list tls) ~after ~duration = gap
      in
      (* The fused search-and-reserve takes the same window, leaves
         every table as a reserve of it would, and reports the slot the
         window took in each. *)
      let slots = Array.make 3 0 in
      let window = [| after; duration |] in
      Timeline.reserve_gap_multi tls slots window;
      let reserved = iv gap (gap +. duration) in
      Array.iter (fun rf -> Reference.reserve rf reserved) rfs;
      let slot_holds_window k tl =
        Interval.equal (List.nth (Timeline.busy tl) slots.(k)) reserved
      in
      same_merge && same_gap && window.(0) = gap
      && Array.for_all2 same_busy tls rfs
      && (d = 0 || List.for_all Fun.id (List.mapi slot_holds_window (Array.to_list tls))))

(* The round-robin gap search with galloping probes, on traces of
   search-and-reserve steps over dense tables: every table starts packed
   with short slots separated by gaps of 0-2 (touching slots included),
   and each step reserves a window of up to 12 units, so one search
   skips several slots of several tables and the gallop takes steps
   longer than one slot. Each step runs over a random subset of the
   tables, in index order. The window must be the reference's earliest
   common gap and the fixpoint of single-table searches, and each recorded slot index must be the one
   [Timeline_reference.reserve_slot] accepts for that window. *)
let dense_arb =
  let table = QCheck.Gen.(list_size (int_range 0 30) (pair (int_bound 2) (int_range 1 3))) in
  let step = QCheck.Gen.(triple (int_range 1 15) (int_bound 100) (int_bound 12)) in
  QCheck.make
    ~print:(fun (tables, steps) ->
      Printf.sprintf "tables=[%s] steps=[%s]"
        (String.concat "; "
           (List.map
              (fun slots ->
                String.concat "," (List.map (fun (g, l) -> Printf.sprintf "%d+%d" g l) slots))
              tables))
        (String.concat "; "
           (List.map (fun (m, a, d) -> Printf.sprintf "(%d,%d,%d)" m a d) steps)))
    QCheck.Gen.(pair (list_size (int_range 1 4) table) (list_size (int_range 1 25) step))

let qcheck_dense_gap_search =
  QCheck.Test.make ~name:"reserve_gap_multi ≡ reference on dense multi-table traces"
    ~count:1000 dense_arb (fun (tables, steps) ->
      let n = List.length tables in
      let tls = Array.init n (fun _ -> Timeline.create ()) in
      let rfs = Array.init n (fun _ -> Reference.create ()) in
      List.iteri
        (fun k slots ->
          ignore
            (List.fold_left
               (fun at (gap, len) ->
                 let interval = iv (float_of_int (at + gap)) (float_of_int (at + gap + len)) in
                 Timeline.reserve tls.(k) interval;
                 Reference.reserve rfs.(k) interval;
                 at + gap + len)
               0 slots))
        tables;
      List.for_all
        (fun (mask, a, d) ->
          let ks = List.filter (fun k -> mask land (1 lsl k) <> 0) (List.init n Fun.id) in
          let sub a = Array.of_list (List.map (fun k -> a.(k)) ks) in
          let tls' = sub tls and rfs' = sub rfs in
          let after = float_of_int a and duration = float_of_int d in
          let want = Reference.earliest_gap_multi (Array.to_list rfs') ~after ~duration in
          let fixpoint =
            Rebuild_reference.earliest_common_gap (Array.to_list tls') ~after ~duration
          in
          let slots = Array.make (Array.length tls') (-1) and window = [| after; duration |] in
          Timeline.reserve_gap_multi tls' slots window;
          let same_slots =
            d = 0
            || Array.for_all Fun.id
                 (Array.mapi
                    (fun k rf ->
                      not
                        (raises (fun () ->
                             Reference.reserve_slot rf slots.(k) ~starts:window
                               ~stops:[| want +. duration |] 0)))
                    rfs')
          in
          fixpoint = want && window.(0) = want && same_slots
          && Array.for_all2 same_busy tls rfs)
        steps)

(* The two ways a gap search ends: after a table late in a round moved
   the candidate, every earlier table must be probed again at the new
   candidate; and one table may move it several times in a row. The
   answers and slots are the reference's. *)
let test_gap_search_streak () =
  let table slots =
    let tl = Timeline.create () and rf = Reference.create () in
    List.iter
      (fun (start, stop) ->
        Timeline.reserve tl (iv start stop);
        Reference.reserve rf (iv start stop))
      slots;
    (tl, rf)
  in
  let check label tables ~after ~duration ~want =
    let tls = Array.of_list (List.map fst tables) and rfs = List.map snd tables in
    Alcotest.(check (float 0.))
      (label ^ ": reference") want
      (Reference.earliest_gap_multi rfs ~after ~duration);
    Alcotest.(check (float 0.))
      (label ^ ": fixpoint") want
      (Rebuild_reference.earliest_common_gap (Array.to_list tls) ~after ~duration);
    let slots = Array.make (Array.length tls) (-1) and window = [| after; duration |] in
    Timeline.reserve_gap_multi tls slots window;
    Alcotest.(check (float 0.)) (label ^ ": reserved window") want window.(0);
    List.iteri
      (fun k (tl, _) ->
        Alcotest.(check (list (float 0.)))
          (Printf.sprintf "%s: table %d slot %d" label k slots.(k))
          [ want; want +. duration ]
          (let slot = List.nth (Timeline.busy tl) slots.(k) in
           [ slot.Interval.start; slot.Interval.stop ]))
      tables
  in
  (* Only the last table moves the candidate, in the first round. *)
  check "last table of a round"
    [ table [ (4., 5.) ]; table [ (5., 6.) ]; table [ (0., 3.) ] ]
    ~after:0. ~duration:1. ~want:3.;
  (* The last table moves it twice, once per round; the first table's
     slot then blocks the second candidate. *)
  check "last table, two rounds"
    [ table [ (5., 8.) ]; table []; table [ (0., 2.); (2.5, 4.) ] ]
    ~after:0. ~duration:2. ~want:8.;
  (* One table, two touching slots then a third: moved three times in a
     row, the later probes galloping. *)
  check "one table, touching slots"
    [ table [ (0., 2.); (2., 4.); (4.5, 7.); (20., 21.) ] ]
    ~after:1. ~duration:1. ~want:7.;
  (* The same table moves it in two consecutive rounds. *)
  check "same table, consecutive rounds"
    [ table [ (0., 2.); (2., 4.) ]; table [ (9., 10.) ] ]
    ~after:0. ~duration:1. ~want:4.

(* Regression for the old non-tail-recursive coalesce: merging tables
   whose combined slot count would overflow the stack under non-tail
   recursion must succeed. *)
let test_merged_busy_large () =
  let tl = Timeline.create () in
  let n = 400_000 in
  for i = 0 to n - 1 do
    let start = float_of_int (2 * i) in
    Timeline.reserve tl (iv start (start +. 1.))
  done;
  Alcotest.(check int)
    "all slots survive the merge (none coalesce across unit gaps)" n
    (List.length (Timeline.merged_busy [ tl ] ~after:0.))

(* A rejected release reports which journal entry no longer holds its
   slot: the stretch stops there, returns one past its index and leaves
   it and the entries before it in place. *)
let test_release_error_reports_index () =
  let tl = Timeline.create () in
  List.iter (fun (a, b) -> Timeline.reserve tl (iv a b)) [ (0., 10.); (20., 30.); (40., 50.) ];
  (* Entry 1 names slot 1 with an interval it does not hold. *)
  let ids = [| 0; 0; 0 |] and slots = [| 0; 1; 2 |] in
  let starts = [| 0.; 20.; 40. |] and stops = [| 10.; 25.; 50. |] in
  Alcotest.(check int) "stops above entry 1" 2
    (Timeline.release_slots [| tl |] ~ids ~slots ~starts ~stops 0 3);
  Alcotest.(check (list (float 0.))) "entries 0 and 1 still hold their slots"
    [ 0.; 10.; 20.; 30. ]
    (List.concat_map (fun (i : Interval.t) -> [ i.start; i.stop ]) (Timeline.busy tl))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_traces;
    QCheck_alcotest.to_alcotest qcheck_append;
    Alcotest.test_case "slot ranges stop at a rejected entry" `Quick test_slot_ranges_stop;
    QCheck_alcotest.to_alcotest qcheck_multi;
    QCheck_alcotest.to_alcotest qcheck_dense_gap_search;
    Alcotest.test_case "gap search: last table of a round, same table in a row" `Quick
      test_gap_search_streak;
    Alcotest.test_case "merged_busy on 400k slots" `Quick test_merged_busy_large;
    Alcotest.test_case "release error reports index" `Quick
      test_release_error_reports_index;
  ]
