(* End-to-end smoke tests of the nocsched command-line tool. The binary
   is declared as a test dependency in dune, so it is built and
   reachable relative to the test's working directory. *)

let binary = Filename.concat ".." (Filename.concat "bin" "nocsched.exe")

let run_capture args =
  let out = Filename.temp_file "nocsched_cli" ".out" in
  let command = Printf.sprintf "%s %s > %s 2>&1" binary args (Filename.quote out) in
  let code = Sys.command command in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_generate () =
  let code, text = run_capture "generate --tasks 12 --seed 3" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "summarises the graph" true (contains text "12 tasks")

let test_generate_dot () =
  let code, text = run_capture "generate --tasks 8 --dot" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "graphviz output" true (contains text "digraph")

let test_schedule_tgff () =
  let code, text = run_capture "schedule --benchmark tgff:1 --tasks 20 --algo eas" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "prints energy" true (contains text "energy");
  Alcotest.(check bool) "no warnings" false (contains text "WARNING")

let test_schedule_msb_gantt () =
  let code, text = run_capture "schedule --benchmark decoder:akiyo --algo edf --gantt" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "gantt rows" true (contains text "pe  0 |")

let test_schedule_roundtrip_files () =
  let ctg_file = Filename.temp_file "cli" ".ctg" in
  let sched_file = Filename.temp_file "cli" ".sched" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove ctg_file;
      Sys.remove sched_file)
    (fun () ->
      let code, _ =
        run_capture (Printf.sprintf "generate --tasks 15 --seed 4 -o %s" ctg_file)
      in
      Alcotest.(check int) "generate exit 0" 0 code;
      let code, text =
        run_capture
          (Printf.sprintf "schedule --input %s --save-schedule %s --utilization"
             ctg_file sched_file)
      in
      Alcotest.(check int) "schedule exit 0" 0 code;
      Alcotest.(check bool) "utilization printed" true (contains text "pe 0:");
      Alcotest.(check bool) "schedule file written" true (Sys.file_exists sched_file))

let test_simulate () =
  let code, text = run_capture "simulate --benchmark tgff:2 --tasks 20" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "planned and realised" true
    (contains text "planned" && contains text "realised")

(* Tightness 0.5 leaves deadlines no schedule can meet: the certifier
   rejects the result, and schedule/simulate exit 1 — after still
   writing every output asked for. *)
let test_uncertified_exits_1 () =
  let sched_file = Filename.temp_file "cli" ".sched" in
  Sys.remove sched_file;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists sched_file then Sys.remove sched_file)
    (fun () ->
      let code, text =
        run_capture
          (Printf.sprintf
             "schedule --benchmark tgff:1 --tasks 40 --tightness 0.5 --save-schedule %s"
             sched_file)
      in
      Alcotest.(check int) "schedule exits 1" 1 code;
      Alcotest.(check bool) "says why" true (contains text "NOT certified");
      Alcotest.(check bool) "schedule file still written" true (Sys.file_exists sched_file);
      let code, text = run_capture "simulate --benchmark tgff:1 --tasks 40 --tightness 0.5" in
      Alcotest.(check int) "simulate exits 1" 1 code;
      Alcotest.(check bool) "metrics still printed" true (contains text "realised"))

let test_experiment_unknown () =
  let code, text = run_capture "experiment nonsense" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0);
  Alcotest.(check bool) "lists known campaigns" true
    (contains text "known campaigns" && contains text "mapping")

let test_experiment_only () =
  let code, text = run_capture "experiment --only split" in
  Alcotest.(check int) "--only split exit 0" 0 code;
  Alcotest.(check bool) "ran the split campaign" true
    (contains text "Energy breakdown");
  let code, text = run_capture "experiment --only split --only fig7" in
  Alcotest.(check int) "repeated --only exit 0" 0 code;
  Alcotest.(check bool) "ran both campaigns" true
    (contains text "Energy breakdown" && contains text "trade-off");
  let code, text = run_capture "experiment --only bogus" in
  Alcotest.(check int) "--only bogus exit 2" 2 code;
  Alcotest.(check bool) "unknown --only lists known campaigns" true
    (contains text "known campaigns");
  let code, _ = run_capture "experiment split --only fig7" in
  Alcotest.(check int) "positional plus --only exit 2" 2 code

let test_map_cmd () =
  let code, text =
    run_capture "map --benchmark tgff:1 --tasks 30 --tightness 8 --iters 2000"
  in
  Alcotest.(check int) "map exit 0" 0 code;
  Alcotest.(check bool) "prints the candidate table" true
    (contains text "identity");
  Alcotest.(check bool) "prints the winner metrics" true
    (contains text "winner" && contains text "energy")

let test_schedule_map_search () =
  let code, text =
    run_capture "schedule --benchmark tgff:1 --tasks 30 --tightness 8 --map-search"
  in
  Alcotest.(check int) "schedule --map-search exit 0" 0 code;
  Alcotest.(check bool) "prints energy" true (contains text "energy");
  let code, _ = run_capture "schedule --algo edf --map-search" in
  Alcotest.(check int) "EDF rejects --map-search" 2 code

let test_bad_benchmark () =
  let code, _ = run_capture "schedule --benchmark bogus" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

(* Like run_capture, but the argument string is a full shell pipeline
   with a %s hole for the binary, and stdout/stderr come back
   separately. *)
let run_shell fmt =
  Printf.ksprintf
    (fun pipeline ->
      let out = Filename.temp_file "nocsched_cli" ".out" in
      let err = Filename.temp_file "nocsched_cli" ".err" in
      let command =
        Printf.sprintf "%s > %s 2> %s" pipeline (Filename.quote out)
          (Filename.quote err)
      in
      let code = Sys.command command in
      let read f = In_channel.with_open_text f In_channel.input_all in
      let stdout = read out and stderr = read err in
      Sys.remove out;
      Sys.remove err;
      (code, stdout, stderr))
    fmt

let test_stdin_dash () =
  let ctg_file = Filename.temp_file "cli_stdin" ".ctg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ctg_file)
    (fun () ->
      let code, _ =
        run_capture (Printf.sprintf "generate --tasks 12 --seed 5 -o %s" ctg_file)
      in
      Alcotest.(check int) "generate exit 0" 0 code;
      let code, stdout, _ =
        run_shell "cat %s | %s schedule -" (Filename.quote ctg_file) binary
      in
      Alcotest.(check int) "schedule - exit 0" 0 code;
      Alcotest.(check bool) "schedule - ran" true (contains stdout "energy");
      (* The positional form and --input - are the same path. *)
      let code, stdout, _ =
        run_shell "cat %s | %s schedule --input -" (Filename.quote ctg_file) binary
      in
      Alcotest.(check int) "schedule --input - exit 0" 0 code;
      Alcotest.(check bool) "--input - ran" true (contains stdout "energy");
      let code, stdout, _ =
        run_shell "cat %s | %s simulate --input -" (Filename.quote ctg_file) binary
      in
      Alcotest.(check int) "simulate --input - exit 0" 0 code;
      Alcotest.(check bool) "simulate - ran" true (contains stdout "planned");
      let code, stdout, _ =
        run_shell "cat %s | %s analyze --ctg -" (Filename.quote ctg_file) binary
      in
      Alcotest.(check int) "analyze --ctg - exit 0" 0 code;
      Alcotest.(check bool) "analyze - ran" true (contains stdout "analyzed");
      (* generate -o - streams the graph, so the two chain directly. *)
      let code, stdout, _ =
        run_shell "%s generate --tasks 10 --seed 6 -o - | %s schedule -" binary
          binary
      in
      Alcotest.(check int) "generate | schedule pipe exit 0" 0 code;
      Alcotest.(check bool) "pipe ran" true (contains stdout "energy"))

(* Usage errors are uniform across the CLI: exit code 2, the complaint
   and usage on stderr, stdout untouched. *)
let test_usage_errors_exit_2 () =
  let cases =
    [
      ("unknown subcommand", "frobnicate", "unknown command");
      ("unknown flag", "schedule --no-such-flag", "unknown option");
      ("malformed mesh", "generate --mesh 4x", "--mesh");
      ("malformed algo", "schedule --algo bogus --benchmark tgff:1", "--algo");
      ("stray positional", "simulate stray-arg", "too many arguments");
      (* The parse error names the offending token, not just the flag. *)
      ( "malformed vf-levels",
        "schedule --benchmark tgff:1 --dvfs --vf-levels 1,x,0.5",
        "level \"x\" is not a number" );
    ]
  in
  List.iter
    (fun (label, args, needle) ->
      let code, stdout, stderr = run_shell "%s %s" binary args in
      Alcotest.(check int) (label ^ ": exit 2") 2 code;
      Alcotest.(check string) (label ^ ": stdout clean") "" stdout;
      Alcotest.(check bool) (label ^ ": names the problem") true
        (contains stderr needle);
      Alcotest.(check bool) (label ^ ": prints usage") true
        (contains stderr "Usage:"))
    cases

let test_routing_flag () =
  (* The adaptive relation certifies on the acceptance mesh... *)
  let code, text = run_capture "analyze --platform --mesh 8x8 --routing west-first" in
  Alcotest.(check int) "analyze exit 0" 0 code;
  Alcotest.(check bool) "names the routing function" true
    (contains text "west-first routing");
  Alcotest.(check bool) "clean" true (contains text "analysis clean");
  (* ...and the turn-legal detours survive the two-fault replay that
     sinks unrestricted BFS rerouting (the PR-3 regression, end to
     end). *)
  let code, text =
    run_capture
      "simulate --benchmark tgff:3 --tasks 40 --routing west-first --fault \
       link:5-6 --fault link:9-5 --reschedule"
  in
  Alcotest.(check int) "simulate exit 0" 0 code;
  Alcotest.(check bool) "rescheduled replay survives" true
    (contains text "rescheduled replay: 0 deadline misses, 0 lost tasks");
  let code, _, stderr = run_shell "%s analyze --platform --routing bogus" binary in
  Alcotest.(check int) "bad model exit 2" 2 code;
  Alcotest.(check bool) "names --routing" true (contains stderr "--routing")

let test_dvfs_flag () =
  (* End to end: schedule, reclaim slack, re-certify, and persist the
     scaled schedule as a version-3 file. *)
  let sched_file = Filename.temp_file "cli_dvfs" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove sched_file)
    (fun () ->
      let code, text =
        run_capture
          (Printf.sprintf
             "schedule --benchmark tgff:1 --tasks 30 --dvfs --save-schedule %s"
             sched_file)
      in
      Alcotest.(check int) "schedule --dvfs exit 0" 0 code;
      Alcotest.(check bool) "reports the ladder and downclocks" true
        (contains text "dvfs: levels {1,0.8,0.6,0.5} x f_max");
      Alcotest.(check bool) "reports reclaimed energy" true
        (contains text "reclaimed");
      Alcotest.(check bool) "scaled schedule re-certified" true
        (contains text "dvfs schedule certified");
      let saved = In_channel.with_open_text sched_file In_channel.input_all in
      Alcotest.(check bool) "saved as format v3" true
        (String.starts_with ~prefix:"schedule 3\n" saved);
      Alcotest.(check bool) "dvfs annotations present" true
        (contains saved "\ndvfs ");
      (* The analyzer must read the v3 file back and certify the scaled
         windows against the implied base, not the raw cost tables. *)
      let code, text =
        run_capture
          (Printf.sprintf "analyze --benchmark tgff:1 --tasks 30 --schedule %s"
             sched_file)
      in
      Alcotest.(check int) "analyze v3 schedule exit 0" 0 code;
      Alcotest.(check bool) "analysis clean on a scaled schedule" true
        (contains text "analysis clean"));
  (* A custom ladder flows through, and --vf-levels alone is refused
     with the uniform exit-2 discipline. *)
  let code, text =
    run_capture "schedule --benchmark tgff:1 --tasks 30 --dvfs --vf-levels 1,0.7"
  in
  Alcotest.(check int) "custom ladder exit 0" 0 code;
  Alcotest.(check bool) "custom ladder reported" true
    (contains text "dvfs: levels {1,0.7} x f_max");
  let code, stdout, stderr =
    run_shell "%s schedule --benchmark tgff:1 --tasks 30 --vf-levels 1,0.7" binary
  in
  Alcotest.(check int) "--vf-levels without --dvfs: exit 2" 2 code;
  Alcotest.(check string) "stdout clean" "" stdout;
  Alcotest.(check bool) "names the dependency" true
    (contains stderr "--vf-levels only makes sense with --dvfs")

let test_help () =
  let code, text = run_capture "--help=plain" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "lists subcommands" true
    (contains text "generate" && contains text "experiment")

let suite =
  [
    Alcotest.test_case "generate" `Quick test_generate;
    Alcotest.test_case "generate --dot" `Quick test_generate_dot;
    Alcotest.test_case "schedule tgff" `Quick test_schedule_tgff;
    Alcotest.test_case "schedule msb with gantt" `Quick test_schedule_msb_gantt;
    Alcotest.test_case "file roundtrip" `Quick test_schedule_roundtrip_files;
    Alcotest.test_case "uncertified schedule exits 1" `Quick test_uncertified_exits_1;
    Alcotest.test_case "simulate" `Quick test_simulate;
    Alcotest.test_case "unknown experiment" `Quick test_experiment_unknown;
    Alcotest.test_case "experiment --only" `Quick test_experiment_only;
    Alcotest.test_case "map" `Quick test_map_cmd;
    Alcotest.test_case "schedule --map-search" `Quick test_schedule_map_search;
    Alcotest.test_case "bad benchmark" `Quick test_bad_benchmark;
    Alcotest.test_case "stdin via -" `Quick test_stdin_dash;
    Alcotest.test_case "usage errors exit 2" `Quick test_usage_errors_exit_2;
    Alcotest.test_case "routing flag" `Quick test_routing_flag;
    Alcotest.test_case "dvfs flag" `Quick test_dvfs_flag;
    Alcotest.test_case "help" `Quick test_help;
  ]
