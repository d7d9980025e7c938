(* The benchmark's own smoke test, run from the repository root:

     bash perfbench/run.sh --smoke

   - Every workload runs in quick mode (tiny instances, one second),
     untraced and traced; each result must be correct and name exactly
     the metrics BENCHMARK.json lists for that mode, each with its unit.
   - A committed schedule with one shifted start must fail the output
     check every instance goes through. *)

module Json = Noc_obs.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("smoke: FAIL " ^ msg))
    fmt

let member_exn name j =
  match Json.member name j with Some v -> v | None -> failwith ("missing field " ^ name)

(* (name, unit) pairs of one metric list of BENCHMARK.json. *)
let declared bench key =
  match member_exn key bench with
  | Json.List ms ->
    List.map
      (fun m ->
        match (member_exn "name" m, member_exn "unit" m) with
        | Json.String n, Json.String u -> (n, u)
        | _ -> failwith ("malformed entry in " ^ key))
      ms
  | _ -> failwith (key ^ " is not a list")

let workload_names bench =
  match member_exn "workloads" bench with
  | Json.List ws ->
    List.map (fun w -> match member_exn "name" w with Json.String n -> n | _ -> failwith "name") ws
  | _ -> failwith "workloads is not a list"

let run_quick ~workload ~trace =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--workload"; workload; "--seed"; "1"; "--seconds"; "1"; "--trace"; trace; "--quick" |]
  in
  let ic = Unix.open_process_args_in exe args in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  (status, List.nth_opt (List.rev lines) 0)

let check_run ~workload ~trace expected =
  let what = Printf.sprintf "%s --trace %s" workload trace in
  match run_quick ~workload ~trace with
  | Unix.WEXITED 0, Some last -> (
    match Json.parse last with
    | Error msg -> fail "%s: last line is not JSON (%s)" what msg
    | Ok result ->
      if Json.member "correct" result <> Some (Json.Bool true) then fail "%s: not correct" what;
      let metrics = match Json.member "metrics" result with Some (Json.Obj ms) -> ms | _ -> [] in
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name metrics with
          | None -> fail "%s: metric %s missing" what name
          | Some m -> (
            (match Json.member "value" m with
            | Some (Json.Number _) -> ()
            | _ -> fail "%s: metric %s has no numeric value" what name);
            match Json.member "unit" m with
            | Some (Json.String u) when u = unit -> ()
            | _ -> fail "%s: metric %s lacks unit %s" what name unit))
        expected;
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name expected) then fail "%s: undeclared metric %s" what name)
        metrics)
  | Unix.WEXITED 0, None -> fail "%s: no output" what
  | (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n), _ -> fail "%s: exit status %d" what n

(* Shifts one task's start by one time unit; its window then disagrees
   with the cost table. *)
let shift_one_start schedule =
  let placements = Array.copy (Noc_sched.Schedule.placements schedule) in
  let i = Array.length placements / 2 in
  placements.(i) <- { (placements.(i)) with start = placements.(i).start -. 1. };
  Noc_sched.Schedule.make ~placements ~transactions:(Noc_sched.Schedule.transactions schedule)

let check_corruption_caught () =
  let platform = Offline.fresh_platform () in
  let ctg = Offline.graph ~quick:true ~platform Noc_tgff.Category.Category_i 0 in
  let o = Noc_eas.Eas.schedule ~jobs:1 platform ctg in
  let judge schedule =
    (Pipeline.assess platform (Pipeline.finish Pipeline.untimed platform ctg ~repair:None schedule))
      .Pipeline.errors
  in
  if judge o.Noc_eas.Eas.schedule <> [] then fail "the committed schedule fails its own check";
  if judge (shift_one_start o.Noc_eas.Eas.schedule) = [] then
    fail "a schedule with one shifted start passes the output check"

let run () =
  let bench =
    match Json.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  in
  let end_to_end = declared bench "end_to_end" and per_layer = declared bench "per_layer" in
  List.iter
    (fun workload ->
      check_run ~workload ~trace:"0" end_to_end;
      check_run ~workload ~trace:"1" per_layer)
    (workload_names bench);
  check_corruption_caught ();
  if !failures = 0 then print_endline "smoke: ok"
  else (
    Printf.printf "smoke: %d failures\n" !failures;
    exit 1)
