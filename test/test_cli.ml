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

(* [--jobs] fans out only map-search chains and campaign trials: a plain
   schedule runs in one domain at any job count, and its stdout and
   saved schedule are byte for byte the serial ones. *)
let test_schedule_jobs_invariant () =
  let run jobs =
    let out = Filename.temp_file "nocsched_jobs" ".out" in
    let saved = Filename.temp_file "nocsched_jobs" ".sched" in
    let code =
      Sys.command
        (Printf.sprintf "%s schedule --benchmark tgff:1 --jobs %d --save-schedule %s > %s 2>/dev/null"
           binary jobs (Filename.quote saved) (Filename.quote out))
    in
    let read f = In_channel.with_open_text f In_channel.input_all in
    let result = (code, read out, read saved) in
    Sys.remove out;
    Sys.remove saved;
    result
  in
  let code1, out1, saved1 = run 1 and code2, out2, saved2 = run 2 in
  Alcotest.(check int) "exit code" code1 code2;
  Alcotest.(check string) "stdout" out1 out2;
  Alcotest.(check string) "saved schedule" saved1 saved2

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
      ("zero jobs", "schedule --benchmark tgff:1 --jobs 0", "--jobs");
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

(* A fault on an element the platform lacks is a usage error (exit 2,
   stdout clean, the spec named), before anything is scheduled; so is a
   fault set that leaves no PE to reschedule onto, once it is tried. *)
let test_fault_specs_checked () =
  List.iter
    (fun (args, spec) ->
      let code, stdout, stderr = run_shell "%s %s" binary args in
      Alcotest.(check int) (args ^ ": exit 2") 2 code;
      Alcotest.(check string) (args ^ ": stdout clean") "" stdout;
      Alcotest.(check bool) (args ^ ": names the spec") true
        (contains stderr (Printf.sprintf "fault %S" spec)))
    [
      ("simulate --benchmark tgff:1 --tasks 20 --fault pe:99", "pe:99");
      ("simulate --benchmark tgff:1 --tasks 20 --fault pe:99 --reschedule", "pe:99");
      ("analyze --platform --fault pe:99", "pe:99");
      ("analyze --platform --fault link:0-5", "link:0-5");
    ];
  let every_pe = String.concat " " (List.init 16 (Printf.sprintf "--fault pe:%d")) in
  let code, _, stderr =
    run_shell "%s simulate --benchmark tgff:1 --tasks 20 --reschedule %s" binary every_pe
  in
  Alcotest.(check int) "every PE failed: exit 2" 2 code;
  Alcotest.(check bool) "every PE failed: says why" true
    (contains stderr "nocsched: reschedule: Fault_resched.run: every PE is failed")

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

(* Pinned outputs of a fixed set of small invocations: the exit code,
   the MD5 of stdout and, where a schedule is saved, the MD5 of the
   file, one line per invocation in [cli_golden.txt]. Log lines go to
   stderr and are not pinned (they carry wall times). Files are written
   under fixed names in the working directory, since [analyze] prints
   the path it certifies. The binary is found relative to the test
   directory, so regenerate from there:
     dune build && cd _build/default/test && \
       CLI_GOLDEN_REGEN=$PWD/../../../test/cli_golden.txt ./test_main.exe test cli *)

let golden_file = "cli_golden.txt"
let golden_ctg = "cli_golden_input.ctg"

(* (name, arguments, stdin file, saved schedule file) *)
let golden_cases =
  let s = "cli_golden.sched" and v3 = "cli_golden_v3.sched" in
  [
    ("schedule-eas", "schedule --benchmark tgff:1 --tasks 30 --algo eas", None, None);
    ("schedule-eas-base", "schedule --benchmark tgff:1 --tasks 30 --algo eas-base", None, None);
    ("schedule-edf", "schedule --benchmark tgff:1 --tasks 30 --algo edf", None, None);
    ("schedule-gantt", "schedule --benchmark decoder:akiyo --gantt", None, None);
    ("schedule-utilization", "schedule --benchmark tgff:2 --tasks 30 --utilization", None, None);
    ( "schedule-dvfs",
      "schedule --benchmark tgff:1 --tasks 30 --dvfs --save-schedule " ^ v3,
      None,
      Some v3 );
    ( "schedule-dvfs-ladder",
      "schedule --benchmark tgff:1 --tasks 30 --dvfs --vf-levels 1,0.7 --save-schedule " ^ s,
      None,
      Some s );
    ("schedule-map-search", "schedule --benchmark tgff:1 --tasks 30 --tightness 8 --map-search", None, None);
    ( "schedule-uncertified",
      "schedule --benchmark tgff:1 --tasks 40 --tightness 0.5 --save-schedule " ^ s,
      None,
      Some s );
    ("schedule-file", Printf.sprintf "schedule %s --save-schedule %s" golden_ctg s, None, Some s);
    ("schedule-stdin", "schedule - --utilization", Some golden_ctg, None);
    ("simulate", "simulate --benchmark tgff:2 --tasks 20", None, None);
    ("simulate-self-timed", "simulate --benchmark tgff:2 --tasks 20 --self-timed", None, None);
    ( "simulate-reschedule",
      "simulate --benchmark tgff:3 --tasks 30 --fault pe:1 --reschedule --criticality 3",
      None,
      None );
    ( "map",
      "map --benchmark tgff:1 --tasks 30 --tightness 8 --iters 2000 --save-schedule " ^ s,
      None,
      Some s );
    ("analyze-v3", "analyze --benchmark tgff:1 --tasks 30 --schedule " ^ v3, None, None);
  ]

let golden_lines () =
  let code, _ = run_capture (Printf.sprintf "generate --tasks 25 --seed 4 -o %s" golden_ctg) in
  Alcotest.(check int) "generate exit 0" 0 code;
  let run (name, args, stdin, save) =
    Option.iter (fun f -> if Sys.file_exists f then Sys.remove f) save;
    let code, stdout, _ =
      run_shell "%s %s%s" binary args
        (match stdin with Some f -> " < " ^ Filename.quote f | None -> "")
    in
    let saved =
      match save with
      | None -> "-"
      | Some f when Sys.file_exists f -> Digest.to_hex (Digest.file f)
      | Some f -> Alcotest.failf "%s: %s not written" name f
    in
    Printf.sprintf "%s %d %s %s" name code (Digest.to_hex (Digest.string stdout)) saved
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ golden_ctg; "cli_golden.sched"; "cli_golden_v3.sched" ])
    (fun () -> List.map run golden_cases)

let test_golden () =
  let lines = golden_lines () in
  match Sys.getenv_opt "CLI_GOLDEN_REGEN" with
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines)
  | None ->
    let golden =
      In_channel.with_open_text golden_file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    Alcotest.(check (list string)) "pinned invocations" golden lines

(* Every campaign table of [experiment --quick], pinned line by line
   in [experiment_quick_golden.txt]. The two wall-time columns of the
   category tables ([base t(s)], [EAS t(s)]) are masked; every other
   cell is deterministic at any job count. Regenerate from the test
   directory:
     dune build && cd _build/default/test && \
       EXPERIMENT_GOLDEN_REGEN=$PWD/../../../test/experiment_quick_golden.txt \
       ./test_main.exe test cli *)

let experiment_golden_file = "experiment_quick_golden.txt"

(* Masks the last two cells of every row below a table header that
   names [base t(s)]. *)
let mask_runtime_columns lines =
  let mask_row line =
    match List.rev (String.split_on_char '|' line) with
    | trailing :: _eas_t :: _base_t :: rest ->
      String.concat "|" (List.rev (trailing :: " * " :: " * " :: rest))
    | _ -> line
  in
  let rec go masking = function
    | [] -> []
    | line :: rest when contains line "base t(s)" -> line :: go true rest
    | line :: rest when String.length line > 0 && line.[0] = '|' ->
      (if masking then mask_row line else line) :: go masking rest
    | line :: rest -> line :: go false rest
  in
  go false lines

let test_experiment_golden () =
  let code, stdout, _ = run_shell "%s experiment --quick" binary in
  Alcotest.(check int) "exit 0" 0 code;
  let lines =
    String.split_on_char '\n' stdout |> List.filter (fun l -> l <> "") |> mask_runtime_columns
  in
  match Sys.getenv_opt "EXPERIMENT_GOLDEN_REGEN" with
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines)
  | None ->
    let golden =
      In_channel.with_open_text experiment_golden_file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    Alcotest.(check (list string)) "experiment --quick tables" golden lines

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
    Alcotest.test_case "schedule --jobs 2 = --jobs 1" `Quick test_schedule_jobs_invariant;
    Alcotest.test_case "bad benchmark" `Quick test_bad_benchmark;
    Alcotest.test_case "stdin via -" `Quick test_stdin_dash;
    Alcotest.test_case "usage errors exit 2" `Quick test_usage_errors_exit_2;
    Alcotest.test_case "routing flag" `Quick test_routing_flag;
    Alcotest.test_case "dvfs flag" `Quick test_dvfs_flag;
    Alcotest.test_case "help" `Quick test_help;
    Alcotest.test_case "golden outputs" `Quick test_golden;
    Alcotest.test_case "experiment --quick golden" `Quick test_experiment_golden;
    Alcotest.test_case "fault specs checked" `Quick test_fault_specs_checked;
  ]
