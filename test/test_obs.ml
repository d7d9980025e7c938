(* Tests for the Noc_obs observability subsystem: leveled logging,
   counters, the JSON parser, the tracer with its Chrome-trace checker,
   and the EAS decision log. Every test that enables a collector resets
   it again under [Fun.protect] so obs state never leaks between
   tests. *)

module Log = Noc_obs.Log
module Counters = Noc_obs.Counters
module Json = Noc_obs.Json
module Trace = Noc_obs.Trace
module Decisions = Noc_obs.Decisions
module Trace_check = Noc_obs.Trace_check
module Eas = Noc_eas.Eas
module Platform = Noc_noc.Platform
module Builder = Noc_ctg.Builder

let with_obs f =
  Counters.reset ();
  Trace.reset ();
  Decisions.reset ();
  Counters.set_enabled true;
  Trace.set_enabled true;
  Decisions.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Counters.set_enabled false;
      Trace.set_enabled false;
      Decisions.set_enabled false;
      Counters.reset ();
      Trace.reset ();
      Decisions.reset ())
    f

(* A small pipeline whose every stage can run on any PE of a 2x2 mesh:
   enough structure for the scheduler to make non-trivial choices. *)
let small_workload () =
  let platform = Platform.homogeneous_mesh ~cols:2 ~rows:2 in
  let b = Builder.create ~n_pes:4 in
  let n = 6 in
  let prev = ref None in
  for i = 0 to n - 1 do
    let t =
      Builder.add_uniform_task b ~time:10. ~energy:5.
        ?deadline:(if i = n - 1 then Some 200. else None)
        ()
    in
    (match !prev with
    | Some p -> Builder.connect b ~src:p ~dst:t ~volume:64.
    | None -> ());
    prev := Some t
  done;
  (platform, Builder.build_exn b, n)

(* Log *)

let test_log_levels () =
  let round lvl =
    Alcotest.(check (option string))
      (Log.to_string lvl) (Some (Log.to_string lvl))
      (Option.map Log.to_string (Log.of_string (Log.to_string lvl)))
  in
  List.iter round [ Log.Error; Log.Warn; Log.Info; Log.Debug ];
  Alcotest.(check bool) "quiet is error" true (Log.of_string "quiet" = Some Log.Error);
  Alcotest.(check bool) "warning alias" true (Log.of_string "WARNING" = Some Log.Warn);
  Alcotest.(check bool) "unknown rejected" true (Log.of_string "chatty" = None)

(* Counters *)

let test_counters_basics () =
  with_obs (fun () ->
      let c = Counters.counter "test.obs.basics" in
      Counters.incr c;
      Counters.add c 41;
      Alcotest.(check int) "value" 42 (Counters.value c);
      Alcotest.(check bool) "interned" true
        (Counters.value (Counters.counter "test.obs.basics") = 42);
      Alcotest.(check (option int)) "in snapshot" (Some 42)
        (List.assoc_opt "test.obs.basics" (Counters.snapshot ()));
      Counters.reset ();
      Alcotest.(check int) "reset zeroes" 0 (Counters.value c))

let test_counters_disabled_noop () =
  Counters.reset ();
  Counters.set_enabled false;
  let c = Counters.counter "test.obs.disabled" in
  Counters.incr c;
  Counters.add c 10;
  Alcotest.(check int) "disabled increments dropped" 0 (Counters.value c)

let test_histogram_summary () =
  with_obs (fun () ->
      let h = Counters.histogram "test.obs.hist" in
      (* Arrival order must not matter to the summary. *)
      List.iter (Counters.observe h) [ 3.; 1.; 2.; 5.; 4. ];
      match List.assoc_opt "test.obs.hist" (Counters.summaries ()) with
      | None -> Alcotest.fail "histogram missing from summaries"
      | Some s ->
        Alcotest.(check int) "count" 5 s.Counters.count;
        Alcotest.(check (float 1e-12)) "min" 1. s.Counters.min;
        Alcotest.(check (float 1e-12)) "max" 5. s.Counters.max;
        Alcotest.(check (float 1e-12)) "mean" 3. s.Counters.mean;
        Alcotest.(check (float 1e-12)) "p50" 3. s.Counters.p50)

(* Json *)

let test_json_parse () =
  let ok text = match Json.parse text with
    | Ok v -> v
    | Error e -> Alcotest.failf "expected %S to parse: %s" text e
  in
  (match ok {|{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}|} with
  | Json.Obj fields ->
    Alcotest.(check int) "fields" 4 (List.length fields);
    (match List.assoc "a" fields with
    | Json.List [ Json.Number a; Json.Number b; Json.Number c ] ->
      Alcotest.(check (float 1e-12)) "int" 1. a;
      Alcotest.(check (float 1e-12)) "frac" 2.5 b;
      Alcotest.(check (float 1e-12)) "exp" (-300.) c
    | _ -> Alcotest.fail "array shape");
    Alcotest.(check bool) "escape decoded" true
      (List.assoc "b" fields = Json.String "x\ny")
  | _ -> Alcotest.fail "not an object");
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" text
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "1 2"; "" ]

let test_json_escape_and_number () =
  (match Json.parse (Json.escape_string "a\"b\\c\n\t\x01") with
  | Ok (Json.String s) -> Alcotest.(check string) "round trip" "a\"b\\c\n\t\x01" s
  | _ -> Alcotest.fail "escaped string does not parse back");
  Alcotest.(check string) "inf" "\"inf\"" (Json.number infinity);
  Alcotest.(check string) "-inf" "\"-inf\"" (Json.number neg_infinity);
  Alcotest.(check string) "nan" "\"nan\"" (Json.number nan);
  match Json.parse (Json.number 0.1) with
  | Ok (Json.Number f) -> Alcotest.(check (float 0.)) "finite round trip" 0.1 f
  | _ -> Alcotest.fail "number does not parse back"

(* Canonical printer *)

let test_json_to_string_canonical () =
  let doc =
    Json.Obj
      [
        ("b", Json.Number 1.);
        ("a", Json.List [ Json.Null; Json.Bool false ]);
        ("b", Json.String "dup");
      ]
  in
  Alcotest.(check string) "keys sorted, duplicates kept in input order"
    {|{"a":[null,false],"b":1,"b":"dup"}|} (Json.to_string doc);
  Alcotest.(check string) "shortest round-trip float" "0.1"
    (Json.to_string (Json.Number 0.1));
  Alcotest.(check string) "integral float without fraction" "3"
    (Json.to_string (Json.Number 3.));
  Alcotest.(check string) "negative zero kept" "-0"
    (Json.to_string (Json.Number (-0.)));
  Alcotest.(check string) "infinity uses the number convention" "\"inf\""
    (Json.to_string (Json.Number infinity));
  (* Structurally equal documents print byte-identically regardless of
     how their objects were assembled. *)
  Alcotest.(check string) "field order never shows"
    (Json.to_string (Json.Obj [ ("x", Json.Number 2.); ("y", Json.Null) ]))
    (Json.to_string (Json.Obj [ ("y", Json.Null); ("x", Json.Number 2.) ]))

(* qcheck: print/parse round trip on arbitrary documents. *)

let json_gen =
  let open QCheck.Gen in
  let finite_float =
    oneof
      [
        float;
        oneofl
          [ 0.; -0.; 0.1; 1e-300; -1.5e300; 1e16; 12345678901234567.; 1e22 ];
      ]
    >|= fun f -> if Float.is_finite f then f else 0.
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Number f) finite_float;
        map (fun s -> Json.String s) (small_string ~gen:char);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               ( 1,
                 map
                   (fun l -> Json.List l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4)
                      (pair (small_string ~gen:printable) (self (n / 2)))) );
             ])

(* to_string sorts object keys, so parsing the printed form yields the
   canonicalized document: same tree with every object key-sorted
   (stable, so duplicate keys keep their input order). *)
let rec canonical = function
  | (Json.Null | Json.Bool _ | Json.Number _ | Json.String _) as v -> v
  | Json.List l -> Json.List (List.map canonical l)
  | Json.Obj kvs ->
    Json.Obj
      (List.stable_sort
         (fun (a, _) (b, _) -> String.compare a b)
         (List.map (fun (k, v) -> (k, canonical v)) kvs))

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"json print/parse round trip" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      let printed = Json.to_string v in
      match Json.parse printed with
      | Error e -> QCheck.Test.fail_reportf "%S does not re-parse: %s" printed e
      | Ok v' ->
        if v' <> canonical v then
          QCheck.Test.fail_reportf "re-parse is not the canonical document";
        (* Printing is idempotent: the canonical form is a fixpoint. *)
        String.equal (Json.to_string v') printed)

(* Trace + Trace_check on a real scheduler run *)

(* [Trace_check.check_file] on [text], written to a temporary file. *)
let check_trace ?require_counters text =
  let path = Filename.temp_file "nocsched_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Trace_check.check_file ?require_counters path)

let test_trace_export_validates () =
  with_obs (fun () ->
      let platform, ctg, _ = small_workload () in
      ignore (Eas.schedule platform ctg);
      Alcotest.(check bool) "spans recorded" true (Trace.event_count () > 0);
      let text = Trace.export () in
      (match check_trace ~require_counters:true text with
      | Ok () -> ()
      | Error e -> Alcotest.failf "exported trace rejected: %s" e);
      (* The export must itself be the JSON our own parser accepts, and
         carry the scheduler's headline counter. *)
      match Json.parse text with
      | Error e -> Alcotest.failf "export not valid JSON: %s" e
      | Ok doc -> (
        match Json.member "otherData" doc with
        | Some other -> (
          match Json.member "counters" other with
          | Some (Json.Obj counters) ->
            Alcotest.(check bool) "F(i,k) counter exported" true
              (List.mem_assoc "eas.finish_time.evaluations" counters)
          | _ -> Alcotest.fail "otherData.counters missing")
        | None -> Alcotest.fail "otherData missing"))

let test_trace_parallel_campaign_validates () =
  with_obs (fun () ->
      ignore
        (Noc_experiments.Random_suite.run ~jobs:2 ~indices:[ 0; 1; 2; 3 ]
           ~scale:0.08 Noc_tgff.Category.Category_i);
      let text = Trace.export () in
      match check_trace ~require_counters:true text with
      | Ok () -> ()
      | Error e -> Alcotest.failf "pool-domain trace rejected: %s" e)

let test_trace_check_rejects_malformed () =
  let reject label text =
    match check_trace text with
    | Ok () -> Alcotest.failf "%s: should have been rejected" label
    | Error _ -> ()
  in
  reject "bad JSON" "{";
  reject "missing traceEvents" {|{"otherData": {"schema": "nocsched/trace/v1"}}|};
  reject "wrong schema"
    {|{"traceEvents": [], "otherData": {"schema": "bogus/v9"}}|};
  reject "unknown phase"
    {|{"traceEvents": [{"name": "e", "ph": "Z", "pid": 0, "tid": 0, "ts": 0}],
       "otherData": {"schema": "nocsched/trace/v1"}}|};
  reject "negative dur"
    {|{"traceEvents": [{"name": "e", "ph": "X", "pid": 0, "tid": 0, "ts": 0,
                        "dur": -1}],
       "otherData": {"schema": "nocsched/trace/v1"}}|};
  reject "straddling spans"
    {|{"traceEvents": [
        {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 10},
        {"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 5, "dur": 10}],
       "otherData": {"schema": "nocsched/trace/v1"}}|};
  match
    check_trace ~require_counters:true
      {|{"traceEvents": [], "otherData": {"schema": "nocsched/trace/v1"}}|}
  with
  | Ok () -> Alcotest.fail "counters requirement not enforced"
  | Error _ -> ()

(* Decision log *)

let decision_lines () =
  Decisions.export_jsonl () |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun line ->
         match Json.parse line with
         | Ok (Json.Obj fields) -> fields
         | Ok _ -> Alcotest.failf "decision line is not an object: %s" line
         | Error e -> Alcotest.failf "decision line unparseable (%s): %s" e line)

let int_field name fields =
  match List.assoc_opt name fields with
  | Some (Json.Number f) -> int_of_float f
  | _ -> Alcotest.failf "decision record lacks integer %S" name

let test_decision_log_replays_placements () =
  with_obs (fun () ->
      let platform, ctg, n_tasks = small_workload () in
      ignore (Decisions.with_run "test" (fun () -> Eas.schedule platform ctg));
      let lines = decision_lines () in
      Alcotest.(check bool) "records made" true (List.length lines > 0);
      (* Every level-scheduler pass commits each task exactly once, so
         the record count is a whole multiple of the task count... *)
      Alcotest.(check int) "one record per task per pass" 0
        (List.length lines mod n_tasks);
      (* ...and within the first pass, tasks 0..n-1 each appear once. *)
      let first_pass = List.filteri (fun i _ -> i < n_tasks) lines in
      let tasks = List.map (int_field "task") first_pass in
      Alcotest.(check (list int)) "first pass covers all tasks"
        (List.init n_tasks Fun.id)
        (List.sort compare tasks);
      List.iter
        (fun fields ->
          let chosen = int_field "chosen" fields in
          let candidates =
            match List.assoc_opt "candidates" fields with
            | Some (Json.List cs) ->
              List.map
                (fun c ->
                  match c with
                  | Json.Obj c -> (int_field "pe" c, List.assoc_opt "f" c)
                  | _ -> Alcotest.fail "candidate is not an object")
                cs
            | _ -> Alcotest.fail "candidates missing"
          in
          match List.assoc_opt chosen candidates with
          | None -> Alcotest.failf "chosen PE %d not among candidates" chosen
          | Some f ->
            Alcotest.(check bool) "chosen_f is the chosen candidate's F" true
              (List.assoc_opt "chosen_f" fields = f))
        lines)

let test_decision_log_disabled_noop () =
  Decisions.reset ();
  Decisions.set_enabled false;
  Decisions.record ~task:0 ~rule:"deadline" ~chosen:1 ~budgeted_deadline:10.
    ~finishes:[| 1.; 2. |];
  Alcotest.(check int) "disabled record dropped" 0 (Decisions.count ())

let suite =
  [
    Alcotest.test_case "log levels" `Quick test_log_levels;
    Alcotest.test_case "counters" `Quick test_counters_basics;
    Alcotest.test_case "counters disabled" `Quick test_counters_disabled_noop;
    Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
    Alcotest.test_case "json parse" `Quick test_json_parse;
    Alcotest.test_case "json escape/number" `Quick test_json_escape_and_number;
    Alcotest.test_case "json canonical printer" `Quick
      test_json_to_string_canonical;
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
    Alcotest.test_case "trace export validates" `Quick test_trace_export_validates;
    Alcotest.test_case "trace of parallel campaign validates" `Slow
      test_trace_parallel_campaign_validates;
    Alcotest.test_case "trace checker rejects malformed" `Quick
      test_trace_check_rejects_malformed;
    Alcotest.test_case "decision log replays placements" `Quick
      test_decision_log_replays_placements;
    Alcotest.test_case "decision log disabled" `Quick
      test_decision_log_disabled_noop;
  ]
