(* Differential tests: the indexed Timeline against the naive
   Timeline_reference model.

   Random operation traces — reserve (possibly overlapping, possibly
   empty), reserve at a given slot index (the right one or a neighbour),
   release of a live slot at its index or at a wrong one, gap queries,
   utilisation, span — are replayed against both
   implementations; every observation must agree, including which
   operations raise. Values are
   drawn from a small integer grid so collisions, touching intervals and
   exact-duration fits all occur constantly. *)

module Timeline = Noc_util.Timeline
module Reference = Noc_oracle.Timeline_reference
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
          let start = float_of_int s and stop = float_of_int (s + l) in
          let at = Timeline.slot tl start + o in
          if
            raises (fun () -> Timeline.reserve_slot tl at ~start ~stop)
            <> raises (fun () -> Reference.reserve_slot rf at ~start ~stop)
          then ok := false
        | Release_nth (i, o) ->
          let live = Reference.busy rf in
          (match live with
          | [] -> ()
          | _ ->
            let nth = i mod List.length live in
            let { Interval.start; stop } = List.nth live nth in
            if
              raises (fun () -> Timeline.release_slot tl (nth + o) ~start ~stop)
              <> raises (fun () -> Reference.release_slot rf (nth + o) ~start ~stop)
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

(* Multi-timeline operations: reserve across several tables, then compare
   merged_busy and earliest_gap_multi, and reserve the gap with
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
      let same_gap = Timeline.earliest_gap_multi tls ~after ~duration = gap in
      (* The fused search-and-reserve takes the same window, leaves
         every table as a reserve of it would, and reports the slot the
         window took in each. *)
      let slots = Array.make 3 0 in
      let window = Timeline.reserve_gap_multi tls slots ~after ~duration in
      let reserved = iv gap (gap +. duration) in
      Array.iter (fun rf -> Reference.reserve rf reserved) rfs;
      let slot_holds_window k tl =
        Interval.equal (List.nth (Timeline.busy tl) slots.(k)) reserved
      in
      same_merge && same_gap && window = gap
      && Array.for_all2 same_busy tls rfs
      && (d = 0 || List.for_all Fun.id (List.mapi slot_holds_window (Array.to_list tls))))

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

let test_release_error_reports_index () =
  let tl = Timeline.create () in
  Timeline.reserve tl (iv 0. 10.);
  Timeline.reserve tl (iv 20. 30.);
  match Timeline.release_slot tl 1 ~start:20. ~stop:25. with
  | () -> Alcotest.fail "release of unknown interval must raise"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S names slot index 1" msg)
      true
      (let contains needle =
         let nl = String.length needle and ml = String.length msg in
         let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
         at 0
       in
       contains "index 1")

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_traces;
    QCheck_alcotest.to_alcotest qcheck_multi;
    Alcotest.test_case "merged_busy on 400k slots" `Quick test_merged_busy_large;
    Alcotest.test_case "release error reports index" `Quick
      test_release_error_reports_index;
  ]
