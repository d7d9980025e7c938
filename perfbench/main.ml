(* perfbench: the benchmark program. One command per run:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--suite K] [--quick]
     main.exe --smoke

   Workloads: cat1-slack, cat2-tight, serve-mix (see BENCHMARK.json).
   With --trace 0 the run prints the end-to-end metrics; with --trace 1
   the per-layer metrics of a traced run. The last stdout line is the
   JSON result; the exit code is 1 when any output check failed. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (cat1-slack|cat2-tight|serve-mix) --seed N --seconds S \
     --trace 0|1 [--suite K] [--quick] | --smoke";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  suite : int;
  quick : bool;
}

let parse_args argv =
  let a =
    ref { workload = ""; seed = 0; seconds = 20.; trace = false; suite = 0; quick = false }
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> a := { !a with workload = w }; go rest
    | "--seed" :: n :: rest -> a := { !a with seed = int_of n }; go rest
    | "--seconds" :: n :: rest -> a := { !a with seconds = float_of_int (int_of n) }; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> a := { !a with trace = t = "1" }; go rest
    | "--suite" :: n :: rest -> a := { !a with suite = int_of n }; go rest
    | "--quick" :: rest -> a := { !a with quick = true }; go rest
    | _ -> usage ()
  in
  go argv;
  if !a.seconds <= 0. || !a.suite < 0 then usage ();
  !a

let run_offline a kind =
  let reps = if kind = Noc_tgff.Category.Category_i then 7 else 5 in
  let make () = Offline.setup ~quick:a.quick ~kind ~suite:a.suite ~seed:a.seed in
  if a.trace then
    let input = make () in
    Offline.traced ~seconds:a.seconds input
  else
    let input, setup = Calibrate.setups ~reps ~seconds:a.seconds make in
    Offline.end_to_end ~setup ~seconds:a.seconds input

let run a =
  Printf.printf "== %s seed=%d suite=%d seconds=%g trace=%b%s cores_available=%d\n" a.workload
    a.seed a.suite a.seconds a.trace
    (if a.quick then " quick" else "")
    (Domain.recommended_domain_count ());
  let checks, metrics =
    match a.workload with
    | "cat1-slack" -> run_offline a Noc_tgff.Category.Category_i
    | "cat2-tight" -> run_offline a Noc_tgff.Category.Category_ii
    | "serve-mix" ->
      Serve_mix.run ~quick:a.quick ~suite:a.suite ~seed:a.seed ~seconds:a.seconds ~trace:a.trace
    | _ -> usage ()
  in
  Common.report checks (if a.trace then Layers.complete metrics else metrics);
  exit (if checks.Common.Checks.failed = 0 then 0 else 1)

let () =
  (* Exit through [exit] on a termination signal, so the at_exit handler
     reaps any daemon this run spawned. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  match List.tl (Array.to_list Sys.argv) with
  | [ "--smoke" ] -> Smoke.run ()
  | argv -> run (parse_args argv)
