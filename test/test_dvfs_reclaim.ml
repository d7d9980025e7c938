(* Tests for the DVFS power-management subsystem: the V/f ladder, the
   slack-reclamation pass and its certification rules. *)

module Vf_table = Noc_dvfs.Vf_table
module Reclaim = Noc_dvfs.Reclaim
module Schedule = Noc_sched.Schedule
module Schedule_io = Noc_sched.Schedule_io
module Metrics = Noc_sched.Metrics
module Certify = Noc_analysis.Certify
module Ctg = Noc_ctg.Ctg
module Category = Noc_tgff.Category

let platform = Category.platform

let category_ctg kind index =
  let params = Category.scaled_params kind ~scale:0.3 in
  Noc_tgff.Generate.generate ~params ~platform
    ~seed:(Category.seed_of kind index)

let eas ctg = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule

(* Certified: no error-severity diagnostic of the scaled check. *)
let certifies_scaled ~ratios ~annotations ~base ctg scaled =
  let errors, _, _ =
    Noc_analysis.Diagnostic.count
      (Certify.check_scaled ~ratios ~annotations ~base platform ctg scaled)
  in
  errors = 0

let certified_scaled ?(table = Vf_table.default) ctg base (r : Reclaim.result) =
  certifies_scaled ~ratios:(Vf_table.ratios table) ~annotations:r.annotations ~base ctg
    r.schedule

(* ------------------------------------------------------------------ *)
(* Vf_table *)

let contains msg fragment =
  let nh = String.length msg and nn = String.length fragment in
  let rec scan i = i + nn <= nh && (String.sub msg i nn = fragment || scan (i + 1)) in
  scan 0

let expect_table_error text fragment =
  match Vf_table.of_string text with
  | Ok _ -> Alcotest.failf "%S parsed; wanted error mentioning %S" text fragment
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions %S" msg fragment)
      true (contains msg fragment)

let test_vf_table_parse () =
  (match Vf_table.of_string "1,0.8,0.6,0.5" with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
    Alcotest.(check int) "four levels" 4 (Vf_table.n_levels t);
    Alcotest.(check string) "canonical form" "1,0.8,0.6,0.5"
      (Vf_table.to_string t);
    Alcotest.(check (float 1e-12)) "level 0 is f_max" 1.
      (Vf_table.ratio t ~level:0);
    Alcotest.(check (float 1e-12)) "slowdown is 1/r" 2.
      (Vf_table.slowdown t ~level:3);
    Alcotest.(check (float 1e-12)) "energy scale is r^2" 0.25
      (Vf_table.energy_scale t ~level:3));
  (* Unsorted input is accepted and sorted descending. *)
  match Vf_table.of_string "0.5,1,0.8" with
  | Error msg -> Alcotest.fail msg
  | Ok t -> Alcotest.(check string) "sorted descending" "1,0.8,0.5"
              (Vf_table.to_string t)

let test_vf_table_errors () =
  (* Each error names the offending token — the CLI contract behind
     --vf-levels. *)
  expect_table_error "1,x,0.5" "\"x\"";
  expect_table_error "1,,0.5" "empty level";
  expect_table_error "1,0.8,0.8" "duplicate";
  expect_table_error "0.9,0.8" "fastest level must be 1";
  expect_table_error "1,0.8,0" "0";
  expect_table_error "1,1.5" "not in (0, 1]";
  expect_table_error "" "empty"

let test_vf_table_hex_roundtrip () =
  let t = Vf_table.default in
  (match Vf_table.of_string (Vf_table.to_string t) with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
    Alcotest.(check string) "to_string/of_string closes" (Vf_table.hex t)
      (Vf_table.hex t'));
  Alcotest.(check bool) "hex distinguishes ladders" true
    (Vf_table.hex t
    <> Vf_table.hex (Result.get_ok (Vf_table.of_string "1,0.8,0.6")))

(* ------------------------------------------------------------------ *)
(* Reclaim laws *)

(* The three invariants the subsystem is built around, checked on random
   category-I/II instances: starts and communication windows frozen, no
   new deadline miss, computation energy monotone non-increasing. *)
let reclaim_law kind index =
  let ctg = category_ctg kind index in
  let base = eas ctg in
  let r = Reclaim.run ctg base in
  let bp = Schedule.placements base and sp = Schedule.placements r.schedule in
  let starts_frozen =
    Array.for_all2
      (fun (b : Schedule.placement) (s : Schedule.placement) ->
        b.task = s.task && b.pe = s.pe
        && Int64.bits_of_float b.start = Int64.bits_of_float s.start
        && s.finish >= b.finish -. 1e-9)
      bp sp
  in
  let windows_frozen =
    Array.for_all2
      (fun (b : Schedule.transaction) (s : Schedule.transaction) ->
        b = s)
      (Schedule.transactions base)
      (Schedule.transactions r.schedule)
  in
  let no_new_miss =
    Array.for_all
      (fun (s : Schedule.placement) ->
        match (Ctg.task ctg s.task).Noc_ctg.Task.deadline with
        | None -> true
        | Some d ->
          let b = bp.(s.task) in
          b.finish > d +. 1e-9 (* base already missed: anything goes *)
          || s.finish <= d +. 1e-9)
      sp
  in
  let energy_monotone =
    r.computation_energy_after <= r.computation_energy_before +. 1e-9
  in
  let annotations_consistent =
    Array.length r.annotations = Ctg.n_tasks ctg
    && Array.for_all
         (fun (a : Schedule_io.annotation) ->
           a.level >= 0 && a.freq > 0. && a.freq <= 1. && a.energy >= 0.)
         r.annotations
  in
  starts_frozen && windows_frozen && no_new_miss && energy_monotone
  && annotations_consistent
  && certified_scaled ctg base r

let qcheck_reclaim_cat1 =
  QCheck.Test.make ~name:"reclaim law holds on category-I instances" ~count:8
    QCheck.(int_range 0 50)
    (fun index -> reclaim_law Category.Category_i index)

let qcheck_reclaim_cat2 =
  QCheck.Test.make ~name:"reclaim law holds on category-II instances" ~count:8
    QCheck.(int_range 0 50)
    (fun index -> reclaim_law Category.Category_ii index)

let test_reclaim_reclaims () =
  (* The paper's sparse category-I suite leaves real slack; the pass
     must find some of it. *)
  let ctg = category_ctg Category.Category_i 0 in
  let base = eas ctg in
  let r = Reclaim.run ctg base in
  Alcotest.(check bool) "downclocks at least one task" true (r.downclocked > 0);
  Alcotest.(check bool) "reclaims energy" true (Reclaim.reclaimed r > 0.);
  Alcotest.(check bool) "certifies" true (certified_scaled ctg base r)

(* ------------------------------------------------------------------ *)
(* Zero slack => identity *)

let test_zero_slack_identity () =
  (* Rebuild the graph with every deadline pinned to the task's as-built
     finish: each slack bound collapses to the finish itself, no level
     below f_max fits, and the pass must return the base schedule
     bit-identically (level-0 placements are passed through verbatim). *)
  let ctg = category_ctg Category.Category_i 3 in
  let base = eas ctg in
  let bp = Schedule.placements base in
  let pinned_tasks =
    Array.map
      (fun (t : Noc_ctg.Task.t) -> { t with deadline = Some bp.(t.id).finish })
      (Ctg.tasks ctg)
  in
  let pinned = Ctg.make_exn ~tasks:pinned_tasks ~edges:(Ctg.edges ctg) in
  let r = Reclaim.run pinned base in
  Alcotest.(check int) "nothing downclocked" 0 r.downclocked;
  Alcotest.(check (float 0.)) "nothing reclaimed" 0. (Reclaim.reclaimed r);
  Alcotest.(check bool) "placements bit-identical" true
    (Schedule.placements r.schedule = bp);
  Alcotest.(check bool) "transactions bit-identical" true
    (Schedule.transactions r.schedule = Schedule.transactions base);
  Array.iter
    (fun (a : Schedule_io.annotation) ->
      Alcotest.(check int) "every task at f_max" 0 a.level)
    r.annotations

(* ------------------------------------------------------------------ *)
(* check_scaled rejects tampering *)

let test_check_scaled_rejects_mutations () =
  let ctg = category_ctg Category.Category_i 1 in
  let base = eas ctg in
  let r = Reclaim.run ctg base in
  let some_downclocked =
    match
      Array.find_opt (fun (a : Schedule_io.annotation) -> a.level > 0)
        r.annotations
    with
    | Some a -> a.task
    | None -> Alcotest.fail "fixture reclaimed nothing"
  in
  let rejects label mutate =
    let placements = Array.map Fun.id (Schedule.placements r.schedule) in
    let annotations = Array.map Fun.id r.annotations in
    let transactions = Array.map Fun.id (Schedule.transactions r.schedule) in
    mutate placements annotations transactions;
    let mutant = Schedule.make ~placements ~transactions in
    Alcotest.(check bool) label false
      (certifies_scaled ~ratios:(Vf_table.ratios Vf_table.default) ~annotations ~base ctg
         mutant)
  in
  let i = some_downclocked in
  rejects "duration disagreeing with level x base duration" (fun p _ _ ->
      p.(i) <- { p.(i) with finish = p.(i).finish +. 1. });
  rejects "start moved off the base schedule" (fun p _ _ ->
      p.(i) <- { p.(i) with start = p.(i).start +. 0.5 });
  rejects "annotation energy understated" (fun _ a _ ->
      a.(i) <- { a.(i) with energy = a.(i).energy /. 2. });
  rejects "annotation level out of ladder range" (fun _ a _ ->
      a.(i) <- { a.(i) with level = 99 });
  rejects "communication window shifted" (fun _ _ t ->
      t.(0) <- { t.(0) with start = t.(0).start +. 1.; finish = t.(0).finish +. 1. });
  (* And the untampered result certifies, so the rejections above are
     doing the work. *)
  Alcotest.(check bool) "untampered scaled schedule certifies" true
    (certified_scaled ctg base r)

(* ------------------------------------------------------------------ *)
(* Observability *)

let test_reclaim_records_decisions () =
  let ctg = category_ctg Category.Category_ii 2 in
  let base = eas ctg in
  Noc_obs.Decisions.reset ();
  Noc_obs.Decisions.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () -> Noc_obs.Decisions.set_enabled false)
      (fun () -> Noc_obs.Decisions.with_run "" (fun () -> Reclaim.run ctg base))
  in
  let jsonl = Noc_obs.Decisions.export_jsonl () in
  Noc_obs.Decisions.reset ();
  Alcotest.(check bool) "log mentions dvfs/reclaim" true
    (contains jsonl "dvfs/reclaim");
  let lines =
    List.filter
      (fun l -> contains l "dvfs/reclaim")
      (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one decision per task" (Ctg.n_tasks ctg)
    (List.length lines);
  Alcotest.(check bool) "fixture downclocked something" true (r.downclocked > 0)

(* ------------------------------------------------------------------ *)
(* Campaign determinism *)

(* Two inputs: category benchmark 0 at scale 0.2, and the full
   campaign (category I/II suites and the MSB A/V benchmarks at the
   paper's size). Each runs at --jobs 1/2/4 with identical rows, and
   every row obeys the reclamation gates: energy never grows, no scaled
   schedule misses more deadlines than its base, every scaled schedule
   passes [Certify.check_scaled], and every category-I row reclaims
   energy (the paper's sparse suites leave real slack). *)
let test_campaign_jobs_invariant () =
  let module C = Noc_experiments.Dvfs_campaign in
  let digest rows =
    List.map
      (fun (r : C.row) ->
        ( r.name, r.tasks, r.eas_energy, r.dvfs_energy, r.downclocked,
          r.base_misses, r.scaled_misses, r.certified ))
      rows
  in
  List.iter
    (fun (label, run) ->
      let rows = run 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: rows identical at --jobs 1 and %d" label jobs)
            true
            (digest (run jobs) = digest rows))
        [ 2; 4 ];
      let cat1 = List.filter (fun (r : C.row) -> r.category = "cat1") rows in
      Alcotest.(check bool) (label ^ ": has category-I rows") true (cat1 <> []);
      List.iter
        (fun (r : C.row) ->
          let check what = Alcotest.(check bool) (label ^ " " ^ r.name ^ ": " ^ what) true in
          check "energy never grows" (r.dvfs_energy <= r.eas_energy);
          check "no new misses" (r.scaled_misses <= r.base_misses);
          check "scaled schedule certified" r.certified;
          if r.category = "cat1" then check "reclaims energy" (r.reclaimed > 0.))
        rows)
    [
      ("benchmark 0 (scale 0.2)", fun jobs -> C.run ~jobs ~indices:[ 0 ] ~scale:0.2 ());
      ("full campaign", fun jobs -> C.run ~jobs ());
    ]

let suite =
  [
    Alcotest.test_case "vf table parse" `Quick test_vf_table_parse;
    Alcotest.test_case "vf table errors" `Quick test_vf_table_errors;
    Alcotest.test_case "vf table hex" `Quick test_vf_table_hex_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_reclaim_cat1;
    QCheck_alcotest.to_alcotest qcheck_reclaim_cat2;
    Alcotest.test_case "category-I slack is reclaimed" `Quick test_reclaim_reclaims;
    Alcotest.test_case "zero slack is identity" `Quick test_zero_slack_identity;
    Alcotest.test_case "check_scaled rejects mutations" `Quick
      test_check_scaled_rejects_mutations;
    Alcotest.test_case "decisions recorded" `Quick test_reclaim_records_decisions;
    Alcotest.test_case "campaign jobs-invariant" `Quick test_campaign_jobs_invariant;
  ]
