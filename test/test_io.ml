(* Tests for the serialisation modules (Ctg_io, Schedule_io) and the
   utilization reporter. *)

module Ctg = Noc_ctg.Ctg
module Ctg_io = Noc_ctg.Ctg_io
module Schedule_io = Noc_sched.Schedule_io
module Schedule = Noc_sched.Schedule
module Utilization = Noc_sched.Utilization

(* The schedule alone, its DVFS annotations dropped. *)
let of_string platform ctg text = Result.map fst (Schedule_io.of_string_full platform ctg text)
let load ~path platform ctg = Result.map fst (Schedule_io.load_full ~path platform ctg)

let platform = Noc_tgff.Category.platform

let random_ctg ?(n_tasks = 30) seed =
  let params = { Noc_tgff.Params.default with n_tasks } in
  Noc_tgff.Generate.generate ~params ~platform ~seed

let graphs_equal a b =
  Ctg.n_tasks a = Ctg.n_tasks b
  && Ctg.n_edges a = Ctg.n_edges b
  && Array.for_all2
       (fun (x : Noc_ctg.Task.t) (y : Noc_ctg.Task.t) ->
         x.id = y.id && x.name = y.name && x.exec_times = y.exec_times
         && x.energies = y.energies && x.deadline = y.deadline)
       (Ctg.tasks a) (Ctg.tasks b)
  && Array.for_all2
       (fun (x : Noc_ctg.Edge.t) (y : Noc_ctg.Edge.t) ->
         x.id = y.id && x.src = y.src && x.dst = y.dst && x.volume = y.volume)
       (Ctg.edges a) (Ctg.edges b)

let test_ctg_roundtrip () =
  let g = random_ctg 0 in
  match Ctg_io.of_string (Ctg_io.to_string g) with
  | Error msg -> Alcotest.fail msg
  | Ok g' -> Alcotest.(check bool) "exact roundtrip" true (graphs_equal g g')

let qcheck_ctg_roundtrip =
  QCheck.Test.make ~name:"ctg text roundtrip is exact" ~count:30
    QCheck.(int_range 0 5000)
    (fun seed ->
      let g = random_ctg ~n_tasks:20 seed in
      match Ctg_io.of_string (Ctg_io.to_string g) with
      | Error _ -> false
      | Ok g' -> graphs_equal g g')

let test_ctg_file_roundtrip () =
  let g = random_ctg 7 in
  let path = Filename.temp_file "nocsched" ".ctg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ctg_io.save ~path g;
      match Ctg_io.load ~path with
      | Error msg -> Alcotest.fail msg
      | Ok g' -> Alcotest.(check bool) "file roundtrip" true (graphs_equal g g'))

let test_ctg_parse_tolerates_noise () =
  let text =
    "# a comment\n\nctg 1\n  pes 2\ntask 0 name a\n  times 1 2\n\
     \  energies 3 4   # trailing comment\ntask 1 name b deadline 10\n\
     \  times 1 1\n  energies 1 1\nedge 0 from 0 to 1 volume 5\n"
  in
  match Ctg_io.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok g ->
    Alcotest.(check int) "two tasks" 2 (Ctg.n_tasks g);
    Alcotest.(check (option (float 0.))) "deadline kept" (Some 10.)
      (Ctg.task g 1).Noc_ctg.Task.deadline

let expect_parse_error text fragment =
  match Ctg_io.of_string text with
  | Ok _ -> Alcotest.fail ("parse unexpectedly succeeded; wanted " ^ fragment)
  | Error msg ->
    let contains =
      let nh = String.length msg and nn = String.length fragment in
      let rec scan i = i + nn <= nh && (String.sub msg i nn = fragment || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check bool) (Printf.sprintf "%S mentions %S" msg fragment) true contains

let test_ctg_parse_errors () =
  expect_parse_error "pes 2\n" "ctg 1";
  expect_parse_error "ctg 2\n" "version";
  expect_parse_error "ctg 1\ntask 0 name a\n times 1\n energies 1\n" "pes";
  expect_parse_error "ctg 1\npes 2\ntask 5 name a\n" "dense";
  (* The id counter follows the accepted lines: a repeated or skipped id
     after valid ones is rejected too. *)
  expect_parse_error
    "ctg 1\npes 1\ntask 0 name a\n  times 1\n  energies 1\ntask 0 name b\n" "got 0";
  expect_parse_error
    "ctg 1\npes 1\ntask 0 name a\n  times 1\n  energies 1\ntask 2 name b\n" "got 2";
  expect_parse_error "ctg 1\npes 2\ntask 0 name a\n  times 1 2\n" "energies";
  expect_parse_error
    "ctg 1\npes 2\ntask 0 name a\n  times 1\n  energies 1\n" "expected 2";
  expect_parse_error
    "ctg 1\npes 1\ntask 0 name a\n  times 1\n  energies 1\nedge 0 from 0 to 9 volume 1\n"
    "missing task";
  expect_parse_error "ctg 1\npes 1\nbogus line\n" "unknown keyword";
  expect_parse_error
    "ctg 1\npes 1\ntask 0 name a\n  times x\n  energies 1\n" "not a number"

let test_ctg_msb_roundtrip () =
  (* Real-ish content with names and control edges. *)
  let g =
    Noc_msb.Graphs.encoder ~platform:Noc_msb.Platforms.av_2x2
      ~clip:Noc_msb.Profile.Toybox ()
  in
  match Ctg_io.of_string (Ctg_io.to_string g) with
  | Error msg -> Alcotest.fail msg
  | Ok g' -> Alcotest.(check bool) "encoder roundtrip" true (graphs_equal g g')

(* ------------------------------------------------------------------ *)
(* Schedule_io *)

let schedules_equal a b =
  Schedule.placements a = Schedule.placements b
  && Schedule.transactions a = Schedule.transactions b

let test_schedule_roundtrip () =
  let g = random_ctg 3 in
  let s = (Noc_eas.Eas.schedule platform g).Noc_eas.Eas.schedule in
  match of_string platform g (Schedule_io.to_string s) with
  | Error msg -> Alcotest.fail msg
  | Ok s' ->
    Alcotest.(check bool) "exact roundtrip" true (schedules_equal s s');
    Alcotest.(check bool) "still feasible" true
      (Noc_sched.Validate.is_feasible platform g s')

let test_schedule_file_roundtrip () =
  let g = random_ctg 4 in
  let s = Noc_edf.Edf.schedule platform g in
  let path = Filename.temp_file "nocsched" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Schedule_io.save ~path s;
      match load ~path platform g with
      | Error msg -> Alcotest.fail msg
      | Ok s' -> Alcotest.(check bool) "file roundtrip" true (schedules_equal s s'))

let test_schedule_parse_errors () =
  let g = random_ctg 5 in
  let s = (Noc_eas.Eas.schedule platform g).Noc_eas.Eas.schedule in
  let text = Schedule_io.to_string s in
  let check_error mangled fragment =
    match of_string platform g mangled with
    | Ok _ -> Alcotest.fail "expected parse error"
    | Error msg ->
      let contains =
        let nh = String.length msg and nn = String.length fragment in
        let rec scan i = i + nn <= nh && (String.sub msg i nn = fragment || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (msg ^ " mentions " ^ fragment) true contains
  in
  check_error (String.concat "\n" (List.tl (String.split_on_char '\n' text))) "header";
  check_error "schedule 1\nplace 0 pe 0 start 0 finish 1\n" "missing";
  check_error (text ^ "garbage\n") "unknown keyword"

(* A 2x2-mesh schedule whose transaction takes the YX detour [0; 2; 3]
   instead of the deterministic XY route. Version 2 must persist the
   detour verbatim. *)
let detour_platform =
  Noc_noc.Platform.make
    ~topology:(Noc_noc.Topology.mesh ~cols:2 ~rows:2)
    ~pes:(Array.init 4 (fun index -> Noc_noc.Pe.of_kind ~index Noc_noc.Pe.Dsp))
    ~link_bandwidth:100. ()

let detour_ctg =
  let b = Noc_ctg.Builder.create ~n_pes:4 in
  let t0 = Noc_ctg.Builder.add_uniform_task b ~time:10. ~energy:1. () in
  let t1 = Noc_ctg.Builder.add_uniform_task b ~time:10. ~energy:1. () in
  Noc_ctg.Builder.connect b ~src:t0 ~dst:t1 ~volume:500.;
  Noc_ctg.Builder.build_exn b

let detour_schedule =
  Schedule.make
    ~placements:
      [|
        { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
        { Schedule.task = 1; pe = 3; start = 20.; finish = 30. };
      |]
    ~transactions:
      [|
        { Schedule.edge = 0; src_pe = 0; dst_pe = 3; route = [ 0; 2; 3 ];
          start = 10.; finish = 15. };
      |]

let test_detour_schedule_roundtrip () =
  match
    of_string detour_platform detour_ctg
      (Schedule_io.to_string detour_schedule)
  with
  | Error msg -> Alcotest.fail msg
  | Ok s' ->
    Alcotest.(check bool) "detour route preserved verbatim" true
      (schedules_equal detour_schedule s');
    Alcotest.(check (list int)) "route is the detour" [ 0; 2; 3 ]
      (Schedule.transactions s').(0).Schedule.route

let test_legacy_v1_load () =
  (* A version-1 file has no [via] fields; routes come back as the
     platform's deterministic ones. *)
  let text =
    "schedule 1\n\
     place 0 pe 0 start 0 finish 10\n\
     place 1 pe 3 start 20 finish 30\n\
     trans 0 start 10 finish 15\n"
  in
  match of_string detour_platform detour_ctg text with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
    Alcotest.(check (list int)) "deterministic route re-derived"
      (Noc_noc.Platform.route detour_platform ~src:0 ~dst:3)
      (Schedule.transactions s).(0).Schedule.route

(* ------------------------------------------------------------------ *)
(* Version-3 (DVFS-annotated) schedules *)

let scaled_fixture seed =
  let g = random_ctg seed in
  let s = (Noc_eas.Eas.schedule platform g).Noc_eas.Eas.schedule in
  let r = Noc_dvfs.Reclaim.run g s in
  (g, r.Noc_dvfs.Reclaim.schedule, r.Noc_dvfs.Reclaim.annotations)

let annotations_equal (a : Schedule_io.annotation array) b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Schedule_io.annotation) (y : Schedule_io.annotation) ->
         x.task = y.task && x.level = y.level
         && Int64.bits_of_float x.freq = Int64.bits_of_float y.freq
         && Int64.bits_of_float x.energy = Int64.bits_of_float y.energy)
       a b

let test_v3_roundtrip () =
  let g, s, annotations = scaled_fixture 9 in
  let text = Schedule_io.to_string ~dvfs:annotations s in
  Alcotest.(check bool) "v3 header" true
    (String.starts_with ~prefix:"schedule 3\n" text);
  match Schedule_io.of_string_full platform g text with
  | Error msg -> Alcotest.fail msg
  | Ok (_, None) -> Alcotest.fail "annotations dropped by the round-trip"
  | Ok (s', Some annotations') ->
    Alcotest.(check bool) "schedule round-trips exactly" true
      (schedules_equal s s');
    (* Hex floats in the dvfs lines make the round-trip bit-exact, not
       merely close. *)
    Alcotest.(check bool) "annotations round-trip bit-exactly" true
      (annotations_equal annotations annotations')

let test_v3_file_roundtrip () =
  let g, s, annotations = scaled_fixture 10 in
  let path = Filename.temp_file "nocsched" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Schedule_io.save ~dvfs:annotations ~path s;
      match Schedule_io.load_full ~path platform g with
      | Error msg -> Alcotest.fail msg
      | Ok (_, None) -> Alcotest.fail "annotations lost in the file"
      | Ok (s', Some annotations') ->
        Alcotest.(check bool) "file roundtrip" true
          (schedules_equal s s' && annotations_equal annotations annotations'))

let test_v2_loads_at_fmax () =
  (* A v2 file (what every earlier release wrote) still loads, with no
     annotations: every task implicitly at f_max. And without [~dvfs],
     to_string still writes v2, so old readers keep working. *)
  let g = random_ctg 11 in
  let s = (Noc_eas.Eas.schedule platform g).Noc_eas.Eas.schedule in
  let text = Schedule_io.to_string s in
  Alcotest.(check bool) "still a v2 header" true
    (String.starts_with ~prefix:"schedule 2\n" text);
  match Schedule_io.of_string_full platform g text with
  | Error msg -> Alcotest.fail msg
  | Ok (s', annotations) ->
    Alcotest.(check bool) "no annotations" true (annotations = None);
    Alcotest.(check bool) "schedule intact" true (schedules_equal s s')

let test_v3_parse_errors () =
  let g, s, annotations = scaled_fixture 12 in
  let text = Schedule_io.to_string ~dvfs:annotations s in
  let check_error mangled fragment =
    match Schedule_io.of_string_full platform g mangled with
    | Ok _ -> Alcotest.fail ("parse unexpectedly succeeded; wanted " ^ fragment)
    | Error msg ->
      let contains =
        let nh = String.length msg and nn = String.length fragment in
        let rec scan i = i + nn <= nh && (String.sub msg i nn = fragment || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (msg ^ " mentions " ^ fragment) true contains
  in
  (* dvfs lines under a v2 header are an error, not silently dropped. *)
  check_error
    ("schedule 2\n"
    ^ String.concat "\n" (List.tl (String.split_on_char '\n' text)))
    "schedule 3 header";
  (* A missing annotation (mixed coverage) is named. *)
  let without_last_dvfs =
    let rec drop_last_dvfs acc = function
      | [] -> List.rev acc
      | l :: rest
        when String.starts_with ~prefix:"dvfs " l
             && not (List.exists (String.starts_with ~prefix:"dvfs ") rest) ->
        List.rev_append acc rest
      | l :: rest -> drop_last_dvfs (l :: acc) rest
    in
    String.concat "\n" (drop_last_dvfs [] (String.split_on_char '\n' text))
  in
  check_error without_last_dvfs "missing";
  (* Out-of-range frequency (re-annotating the dropped task, so the
     duplicate rule stays out of the way) and duplicate task. *)
  check_error
    (without_last_dvfs
    ^ Printf.sprintf "dvfs %d level 1 freq 0x1.8p+0 energy 0x1p+0\n"
        (Ctg.n_tasks g - 1))
    "freq";
  check_error
    (text ^ "dvfs 0 level 1 freq 0x1.999999999999ap-1 energy 0x1p+0\n")
    "duplicate"

(* Errors about a token name its line and column. *)
let test_error_positions () =
  let check_error label expected = function
    | Ok _ -> Alcotest.failf "%s unexpectedly parsed" label
    | Error msg -> Alcotest.(check string) label expected msg
  in
  check_error "ctg number" {|line 4, col 11: times: not a number ("x")|}
    (Ctg_io.of_string "ctg 1\npes 2\ntask 0 name a\n  times 1 x\n  energies 1 1\n");
  check_error "ctg keyword" {|line 2, col 3: unknown keyword "bogus"|}
    (Ctg_io.of_string "ctg 1\n\t bogus line\n");
  check_error "ctg id" "line 3, col 6: task ids must be dense and ordered (got 5)"
    (Ctg_io.of_string "ctg 1\npes 2\ntask 5 name a\n");
  check_error "ctg whole-text errors stay unpositioned" "missing header line (ctg 1)"
    (Ctg_io.of_string "pes 2\n");
  check_error "schedule route" {|line 4, col 15: route node: not an integer ("")|}
    (of_string detour_platform detour_ctg
       "schedule 2\nplace 0 pe 0 start 0 finish 10\nplace 1 pe 3 start 20 finish 30\n\
        trans 0 via 0,,3 start 10 finish 15\n");
  check_error "schedule platform lookup" "line 4, col 1: index out of bounds"
    (of_string detour_platform detour_ctg
       "schedule 1\nplace 0 pe 0 start 0 finish 10\nplace 1 pe 99 start 20 finish 30\n\
        trans 0 start 10 finish 15\n");
  check_error "json" "at byte 8, line 2, col 3: expected , or } in object, found x"
    (Noc_obs.Json.parse "{\"a\":\n 1x}");
  check_error "vf levels" {|line 1, col 3: level "x" is not a number|}
    (Noc_dvfs.Vf_table.of_string "1,x");
  check_error "mesh" {|line 1, col 3: mesh "4x" must be COLSxROWS with positive integers|}
    (Noc_serve.Protocol.parse_mesh "4x")

(* Schedule lines may separate their fields with tabs as well as
   spaces, like every other text format. *)
let test_schedule_tabs () =
  let text =
    "schedule 2\nplace 0\tpe 0 start 0 finish 10\nplace 1 pe 3 start 20 finish 30\n\
     trans 0 via 0,2,3\tstart 10 finish 15\n"
  in
  match of_string detour_platform detour_ctg text with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
    Alcotest.(check bool) "tab-separated schedule parses" true (schedules_equal detour_schedule s)

(* ------------------------------------------------------------------ *)
(* Utilization *)

let test_utilization () =
  let g = random_ctg 6 in
  let s = (Noc_eas.Eas.schedule platform g).Noc_eas.Eas.schedule in
  let u = Utilization.compute platform s in
  Alcotest.(check (float 1e-9)) "horizon is makespan" (Schedule.makespan s)
    u.Utilization.horizon;
  (* Busy time accounting: the sum over PEs equals the sum of exec
     durations of all tasks. *)
  let total_pe_busy =
    Array.fold_left
      (fun acc (l : Utilization.pe_load) -> acc +. l.Utilization.busy_time)
      0. u.Utilization.pe_loads
  in
  let total_exec =
    Array.fold_left
      (fun acc (p : Schedule.placement) -> acc +. (p.finish -. p.start))
      0. (Schedule.placements s)
  in
  Alcotest.(check (float 1e-6)) "busy time conserved" total_exec total_pe_busy;
  let task_count =
    Array.fold_left
      (fun acc (l : Utilization.pe_load) -> acc + l.Utilization.n_tasks)
      0 u.Utilization.pe_loads
  in
  Alcotest.(check int) "task count conserved" (Noc_ctg.Ctg.n_tasks g) task_count;
  Array.iter
    (fun (l : Utilization.pe_load) ->
      Alcotest.(check bool) "utilisation in [0,1]" true
        (l.Utilization.utilisation >= 0. && l.Utilization.utilisation <= 1. +. 1e-9))
    u.Utilization.pe_loads;
  let busiest = Utilization.busiest_pe u in
  Array.iter
    (fun (l : Utilization.pe_load) ->
      Alcotest.(check bool) "busiest is max" true
        (l.Utilization.busy_time <= busiest.Utilization.busy_time))
    u.Utilization.pe_loads

let test_utilization_links () =
  let g = random_ctg 8 in
  let s = Noc_edf.Edf.schedule platform g in
  let u = Utilization.compute platform s in
  (match Utilization.busiest_link u with
  | None -> Alcotest.fail "EDF on a random graph must use some link"
  | Some l ->
    Alcotest.(check bool) "busiest link has traffic" true
      (l.Utilization.busy_time > 0. && l.Utilization.n_transactions > 0));
  Alcotest.(check bool) "report prints" true
    (String.length (Format.asprintf "%a" Utilization.pp u) > 0)

let suite =
  [
    Alcotest.test_case "ctg roundtrip" `Quick test_ctg_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_ctg_roundtrip;
    Alcotest.test_case "ctg file roundtrip" `Quick test_ctg_file_roundtrip;
    Alcotest.test_case "ctg parse tolerates noise" `Quick test_ctg_parse_tolerates_noise;
    Alcotest.test_case "ctg parse errors" `Quick test_ctg_parse_errors;
    Alcotest.test_case "msb encoder roundtrip" `Quick test_ctg_msb_roundtrip;
    Alcotest.test_case "schedule roundtrip" `Quick test_schedule_roundtrip;
    Alcotest.test_case "schedule file roundtrip" `Quick test_schedule_file_roundtrip;
    Alcotest.test_case "schedule parse errors" `Quick test_schedule_parse_errors;
    Alcotest.test_case "detour schedule roundtrip" `Quick test_detour_schedule_roundtrip;
    Alcotest.test_case "legacy v1 schedule load" `Quick test_legacy_v1_load;
    Alcotest.test_case "v3 dvfs roundtrip" `Quick test_v3_roundtrip;
    Alcotest.test_case "v3 dvfs file roundtrip" `Quick test_v3_file_roundtrip;
    Alcotest.test_case "v2 loads at f_max" `Quick test_v2_loads_at_fmax;
    Alcotest.test_case "v3 parse errors" `Quick test_v3_parse_errors;
    Alcotest.test_case "errors name line and column" `Quick test_error_positions;
    Alcotest.test_case "schedule fields split on tabs" `Quick test_schedule_tabs;
    Alcotest.test_case "utilization accounting" `Quick test_utilization;
    Alcotest.test_case "utilization links" `Quick test_utilization_links;
  ]
