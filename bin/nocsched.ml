(* nocsched: command-line front end.

   Subcommands:
     generate     emit a random TGFF-like CTG (summary, Graphviz or text)
     schedule     run a scheduler on a benchmark and print metrics/Gantt
     map          anneal a task-to-tile mapping and print its Pareto set
     simulate     replay a schedule on the wormhole executor, under faults
     analyze      static analysis: deadlock proofs, lints, certification
     experiment   regenerate one of the paper's tables/figures
     serve        the scheduling daemon, or a client of it
     trace-check  validate a trace-event file

   schedule and simulate print from the record of
   Noc_experiments.Pipeline, which the serve daemon and every campaign
   of experiment run too; map and analyze --schedule certify through
   Pipeline.certify. *)

module Pipeline = Noc_experiments.Pipeline

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument parsing.                                            *)

let mesh_conv =
  let parse s = Result.map_error (fun msg -> `Msg msg) (Noc_serve.Protocol.parse_mesh s) in
  let print ppf (c, r) = Format.fprintf ppf "%dx%d" c r in
  Arg.conv (parse, print)

let mesh_arg =
  Arg.(value & opt mesh_conv (4, 4) & info [ "mesh" ] ~docv:"CxR"
         ~doc:"Mesh dimensions of the target platform.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Random seed (generation is deterministic per seed).")

let routing_conv =
  let parse s =
    match Noc_noc.Turn_model.of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Noc_noc.Turn_model.pp)

let routing_arg =
  Arg.(value & opt routing_conv Noc_noc.Turn_model.Xy
       & info [ "routing" ] ~docv:"ROUTING"
           ~doc:"Routing function of the mesh platform: $(b,xy) (deterministic \
                 dimension order), $(b,west-first) or $(b,odd-even) (adaptive \
                 turn models, proved deadlock-free over their whole admissible \
                 route relation). Adaptive platforms keep fault detours inside \
                 the turn-legal set.")

let tasks_arg =
  Arg.(value & opt int 60 & info [ "tasks" ] ~docv:"N" ~doc:"Number of tasks.")

let tightness_arg =
  Arg.(value & opt float Noc_tgff.Params.default.Noc_tgff.Params.deadline_tightness
       & info [ "tightness" ] ~docv:"T"
           ~doc:"Deadline tightness relative to the fastest critical path.")

let input_arg =
  Arg.(value & opt (some string) None
       & info [ "input"; "i" ] ~docv:"FILE"
           ~doc:"Load the task graph from FILE (text format; $(b,-) reads stdin) \
                 instead of a built-in benchmark; the platform comes from \
                 $(b,--mesh).")

let file_arg =
  Arg.(value & pos 0 (some string) None
       & info [] ~docv:"FILE"
           ~doc:"Task-graph file (text format; $(b,-) reads stdin); shorthand for \
                 $(b,--input) FILE.")

(* The positional FILE wins over --input. *)
let graph_file_term =
  let pick input file = if file <> None then file else input in
  Term.(const pick $ input_arg $ file_arg)

let save_arg =
  Arg.(value & opt (some string) None
       & info [ "save-schedule" ] ~docv:"FILE"
           ~doc:"Write the resulting schedule ($(b,map): the winner's pinned-EAS \
                 schedule) in the library's text format.")

let jobs_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "invalid value %S, expected an integer of at least 1" s))
  in
  Arg.(value & opt (some (conv (parse, Format.pp_print_int))) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Fan the command's independent work (annealing chains, \
                 campaign trials) over N domains. Results are bit-identical \
                 at every job count.")

let fault_arg =
  Arg.(value & opt_all string []
       & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Inject a fault (repeatable): $(b,pe:N) or $(b,link:A-B), optionally \
                 windowed as $(b,SPEC@FROM:UNTIL) with either bound omitted. \
                 $(b,pe:2@100:) fails PE 2 from t = 100 on; $(b,link:3-7) takes \
                 the directed link 3->7 down permanently.")

let self_timed_arg =
  Arg.(value & flag & info [ "self-timed" ]
         ~doc:"Use work-conserving dispatch instead of the tabled times.")

type bench_spec =
  | Tgff of int  (* seed *)
  | Msb of Noc_experiments.Msb_tables.which * Noc_msb.Profile.clip

let bench_conv =
  let parse s =
    match String.split_on_char ':' (String.lowercase_ascii s) with
    | [ "tgff"; seed ] -> (
      match int_of_string_opt seed with
      | Some seed -> Ok (Tgff seed)
      | None -> Error (`Msg "tgff seed must be an integer"))
    | [ which; clip ] -> (
      let which =
        match which with
        | "encoder" -> Some Noc_experiments.Msb_tables.Encoder
        | "decoder" -> Some Noc_experiments.Msb_tables.Decoder
        | "integrated" -> Some Noc_experiments.Msb_tables.Integrated
        | _ -> None
      in
      let clip =
        match clip with
        | "akiyo" -> Some Noc_msb.Profile.Akiyo
        | "foreman" -> Some Noc_msb.Profile.Foreman
        | "toybox" -> Some Noc_msb.Profile.Toybox
        | _ -> None
      in
      match (which, clip) with
      | Some w, Some c -> Ok (Msb (w, c))
      | None, _ | _, None ->
        Error (`Msg "benchmark must be tgff:SEED or {encoder|decoder|integrated}:CLIP"))
    | _ -> Error (`Msg "benchmark must be tgff:SEED or {encoder|decoder|integrated}:CLIP")
  in
  let print ppf = function
    | Tgff seed -> Format.fprintf ppf "tgff:%d" seed
    | Msb (w, c) ->
      Format.fprintf ppf "%s:%s"
        (match w with
        | Noc_experiments.Msb_tables.Encoder -> "encoder"
        | Noc_experiments.Msb_tables.Decoder -> "decoder"
        | Noc_experiments.Msb_tables.Integrated -> "integrated")
        (Noc_msb.Profile.clip_name c)
  in
  Arg.conv (parse, print)

let bench_arg =
  Arg.(value & opt bench_conv (Tgff 0) & info [ "benchmark" ] ~docv:"BENCH"
         ~doc:"Benchmark: tgff:SEED or {encoder|decoder|integrated}:CLIP.")

let algo_conv =
  let parse s =
    Option.to_result ~none:(`Msg "algorithm must be eas, eas-base or edf")
      (Noc_experiments.Runner.algo_of_string s)
  in
  let print ppf a = Format.pp_print_string ppf (Noc_experiments.Runner.algo_name a) in
  Arg.conv (parse, print)

let algo_arg =
  Arg.(value & opt algo_conv Noc_experiments.Runner.Eas
       & info [ "algo" ] ~docv:"ALGO" ~doc:"Scheduler: eas, eas-base or edf.")

let vf_conv =
  let parse s =
    match Noc_dvfs.Vf_table.of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Noc_dvfs.Vf_table.pp)

(* CTG inputs accept "-" for stdin everywhere a path is taken, so
   graphs can be piped: `nocsched generate ... | nocsched schedule -`. *)
let read_ctg_text path =
  if path = "-" then In_channel.input_all In_channel.stdin
  else
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> failwith msg

let load_ctg path =
  let label = if path = "-" then "stdin" else path in
  match Noc_ctg.Ctg_io.of_string (read_ctg_text path) with
  | Error msg -> failwith (label ^ ": " ^ msg)
  | Ok ctg -> ctg

(* The instance flags of schedule, map, simulate and analyze. *)
type instance = {
  spec : bench_spec;
  mesh : int * int;
  tasks : int;
  tightness : float;
  routing : Noc_noc.Turn_model.t;
}

let instance_term =
  let make spec mesh tasks tightness routing = { spec; mesh; tasks; tightness; routing } in
  Term.(const make $ bench_arg $ mesh_arg $ tasks_arg $ tightness_arg $ routing_arg)

(* The (platform, graph) pair of a run: the graph loaded from [input]
   when one is given, else the benchmark's own. *)
let load_instance { spec; mesh; tasks; tightness; routing } input =
  match (input, spec) with
  | Some path, _ ->
    let ctg = load_ctg path in
    let platform = Pipeline.mesh_platform ~routing mesh in
    if Noc_ctg.Ctg.n_pes ctg <> Noc_noc.Platform.n_pes platform then
      failwith "graph PE count does not match --mesh";
    (platform, ctg)
  | None, Tgff seed ->
    let platform = Pipeline.mesh_platform ~routing mesh in
    let params =
      { Noc_tgff.Params.default with n_tasks = tasks; deadline_tightness = tightness }
    in
    (platform, Noc_tgff.Generate.generate ~params ~platform ~seed)
  | None, Msb (which, clip) ->
    if routing <> Noc_noc.Turn_model.Xy then
      failwith "--routing applies to the generated mesh platforms; the MSB \
                benchmark platforms are fixed (xy)";
    ( Noc_experiments.Msb_tables.platform_of which,
      Noc_experiments.Msb_tables.graph_of which ~clip )

(* Fault specs, parsed and checked against the platform. *)
let load_faults platform specs =
  let open Noc_fault.Fault_set in
  match Result.bind (of_strings specs) (check platform) with
  | Ok faults -> faults
  | Error msg -> failwith msg

(* --dvfs and its ladder, shared by schedule and serve. *)
let dvfs_term ~doc =
  let dvfs_arg = Arg.(value & flag & info [ "dvfs" ] ~doc) in
  let vf_levels_arg =
    Arg.(value & opt (some vf_conv) None
         & info [ "vf-levels" ] ~docv:"R1,R2,..."
             ~doc:"Discrete frequency ladder as f/f_max ratios in (0, 1], \
                   e.g. $(b,1,0.8,0.6,0.5) (the default). Must include 1; \
                   needs $(b,--dvfs).")
  in
  let make dvfs vf_levels =
    match (dvfs, vf_levels) with
    | false, Some _ -> failwith "--vf-levels only makes sense with --dvfs"
    | false, None -> None
    | true, _ -> Some (Option.value vf_levels ~default:Noc_dvfs.Vf_table.default)
  in
  Term.(const make $ dvfs_arg $ vf_levels_arg)

(* ------------------------------------------------------------------ *)
(* Observability: leveled logging plus optional trace/decision-log/stats
   outputs, shared by schedule, simulate and experiment.               *)

type obs = { trace : string option; decisions : string option; stats : bool }

let obs_term =
  let verbose_arg =
    Arg.(value & flag
         & info [ "verbose"; "v" ]
             ~doc:"Log progress at debug level (to stderr). Overrides \
                   $(b,NOCSCHED_LOG).")
  in
  let quiet_arg =
    Arg.(value & flag
         & info [ "quiet"; "q" ]
             ~doc:"Log errors only, keeping stderr quiet and stdout \
                   machine-clean. Overrides $(b,NOCSCHED_LOG).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record scheduler/simulator spans and counters and write a \
                   Chrome trace-event JSON file (open in Perfetto or \
                   chrome://tracing; schema $(b,nocsched/trace/v1)).")
  in
  let decisions_arg =
    Arg.(value & opt (some string) None
         & info [ "decisions" ] ~docv:"FILE"
             ~doc:"Write a JSONL decision log: one record per EAS placement \
                   with the candidate F(i,k) values and the chosen PE \
                   (schema $(b,nocsched/decisions/v1)).")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print a summary table of counters and span timings after \
                   the run.")
  in
  let make verbose quiet trace decisions stats =
    Noc_obs.Log.init_from_env ();
    if quiet then Noc_obs.Log.set_level Noc_obs.Log.Error
    else if verbose then Noc_obs.Log.set_level Noc_obs.Log.Debug;
    { trace; decisions; stats }
  in
  Term.(const make $ verbose_arg $ quiet_arg $ trace_arg $ decisions_arg $ stats_arg)

let with_obs obs f =
  let want_trace = obs.trace <> None || obs.stats in
  if want_trace then begin
    Noc_obs.Counters.set_enabled true;
    Noc_obs.Trace.set_enabled true
  end;
  if obs.decisions <> None then Noc_obs.Decisions.set_enabled true;
  let result = f () in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Noc_obs.Trace.export ()));
      Noc_obs.Log.infof "wrote trace %s (%d events)" path
        (Noc_obs.Trace.event_count ()))
    obs.trace;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Noc_obs.Decisions.export_jsonl ()));
      Noc_obs.Log.infof "wrote decision log %s (%d records)" path
        (Noc_obs.Decisions.count ()))
    obs.decisions;
  if obs.stats then print_string (Noc_obs.Report.render ());
  result

(* ------------------------------------------------------------------ *)
(* Certifier reporting shared by schedule, simulate and analyze.       *)

(* Logs the verdict and returns whether the schedule certified (no
   error-severity diagnostic). *)
let report_certification ~label diagnostics =
  match diagnostics with
  | [] ->
    Noc_obs.Log.infof "certifier: %s certified (independent re-verification)" label;
    true
  | diagnostics ->
    List.iter
      (fun d ->
        let text = Format.asprintf "%a" Noc_analysis.Diagnostic.pp d in
        Noc_obs.Log.warnf "certifier: %s" text)
      diagnostics;
    let errors, warnings, _ = Noc_analysis.Diagnostic.count diagnostics in
    if errors = 0 then
      Noc_obs.Log.infof "certifier: %s certified with %d warning(s)" label warnings
    else
      Noc_obs.Log.errorf "certifier: %s NOT certified (%d error(s), %d warning(s))"
        label errors warnings;
    errors = 0

(* [schedule] and [simulate] fail loudly: once every output is written,
   a schedule the certifier rejected makes the command exit 1. *)
let exit_unless_certified = function
  | Ok true -> Ok ()
  | Ok false -> Stdlib.exit 1
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* generate                                                            *)

let generate_cmd =
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of a summary.")
  in
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "output"; "o" ] ~docv:"FILE"
             ~doc:"Write the graph in the library's text format ($(b,-) writes \
                   stdout, suppressing the summary, so graphs pipe into \
                   $(b,schedule -)).")
  in
  let run seed tasks tightness mesh dot output =
    let platform = Pipeline.mesh_platform mesh in
    let params =
      { Noc_tgff.Params.default with n_tasks = tasks; deadline_tightness = tightness }
    in
    let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
    if output = Some "-" then print_string (Noc_ctg.Ctg_io.to_string ctg)
    else begin
      Option.iter (fun path -> Noc_ctg.Ctg_io.save ~path ctg) output;
      if dot then Format.printf "%a" Noc_ctg.Ctg.pp_dot ctg
      else begin
        Format.printf "%a@." Noc_ctg.Ctg.pp ctg;
        Format.printf "sources: %d, sinks: %d, deadline tasks: %d@."
          (List.length (Noc_ctg.Ctg.sources ctg))
          (List.length (Noc_ctg.Ctg.sinks ctg))
          (List.length (Noc_ctg.Ctg.deadline_tasks ctg));
        Format.printf "fastest critical path: %.1f, balanced load bound: %.1f@."
          (Noc_ctg.Ctg.min_critical_path ctg)
          (Noc_ctg.Ctg.min_load_bound ctg);
        Format.printf "total communication volume: %.0f bits@."
          (Noc_ctg.Ctg.total_volume ctg)
      end
    end;
    Ok ()
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random TGFF-like task graph.")
    Term.(term_result
            (const run $ seed_arg $ tasks_arg $ tightness_arg $ mesh_arg $ dot_arg
             $ output_arg))

(* ------------------------------------------------------------------ *)
(* schedule                                                            *)

let schedule_cmd =
  let gantt_arg =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Draw an ASCII Gantt chart.")
  in
  let utilization_arg =
    Arg.(value & flag
         & info [ "utilization" ] ~doc:"Print per-PE and per-link loads.")
  in
  let svg_arg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Render the schedule as an SVG Gantt chart.")
  in
  let map_search_arg =
    Arg.(value & flag
         & info [ "map-search" ]
             ~doc:"Anneal a task-to-tile mapping first (default \
                   $(b,Noc_map.Search) parameters, chains fanned over \
                   $(b,--jobs)) and pin the EAS variants to the winner. EDF \
                   ignores placement, so it rejects this flag.")
  in
  let dvfs_term =
    dvfs_term
      ~doc:"After scheduling, run the DVFS slack-reclamation pass: \
            downclock every task to the lowest $(b,--vf-levels) frequency \
            that still fits its slack, re-certify the scaled schedule, and \
            save it (format v3) when $(b,--save-schedule) is given. Start \
            times, communication windows and deadlines are untouched."
  in
  let run instance algo gantt input save utilization svg jobs map_search ladder obs =
    exit_unless_certified @@ with_obs obs @@ fun () ->
    let platform, ctg = load_instance instance input in
    let pinned =
      if not map_search then None
      else begin
        if algo = Noc_experiments.Runner.Edf then
          failwith "--map-search needs a placement-aware scheduler (eas or eas-base)";
        let r = Noc_map.Search.run ?jobs (Noc_eas.Kernel.build platform ctg) in
        Noc_obs.Log.infof "map search: winner %s (static value %.6g)"
          (Noc_map.Search.origin_name r.Noc_map.Search.winner.origin)
          r.Noc_map.Search.winner.static_value;
        Some r.Noc_map.Search.winner.mapping
      end
    in
    (* One scheduler run serves metrics, outputs and the decision log
       alike — a second run would duplicate every --decisions record
       and double the command's wall time. *)
    let r = Pipeline.run platform ctg { (Pipeline.request algo) with pinned; ladder } in
    let metrics = r.metrics in
    Format.printf "%s on %a / %a@."
      (Noc_experiments.Runner.algo_name algo)
      Noc_noc.Platform.pp platform Noc_ctg.Ctg.pp ctg;
    Format.printf "%a@." Noc_sched.Metrics.pp metrics;
    Noc_obs.Log.infof "scheduler runtime: %.3f s" r.runtime_seconds;
    (* EAS Step 4: the scaled schedule is what --save-schedule persists
       (format v3); the printed Eq.-3 metrics above stay those of the
       unscaled base. *)
    (match (ladder, r.dvfs) with
    | Some table, Some d ->
      let before = d.reclaim.computation_energy_before in
      let after = d.reclaim.computation_energy_after in
      let saved = Noc_dvfs.Reclaim.reclaimed d.reclaim in
      let comm = metrics.total_energy -. metrics.computation_energy in
      Format.printf "dvfs: levels {%s} x f_max, %d/%d tasks downclocked@."
        (Noc_dvfs.Vf_table.to_string table)
        d.reclaim.downclocked (Noc_ctg.Ctg.n_tasks ctg);
      Format.printf
        "dvfs: computation energy %.1f -> %.1f nJ (reclaimed %.1f nJ, %.1f%%), \
         total %.1f -> %.1f nJ@."
        before after saved
        (if before > 0. then 100. *. saved /. before else 0.)
        (before +. comm) (after +. comm);
      if d.scaled_misses > Noc_sched.Metrics.miss_count metrics then
        Noc_obs.Log.errorf "dvfs: reclamation introduced deadline misses (%d)"
          d.scaled_misses
    | _ -> ());
    Option.iter
      (fun path ->
        (match r.dvfs with
        | Some { reclaim; _ } ->
          Noc_sched.Schedule_io.save ~dvfs:reclaim.annotations ~path reclaim.schedule
        | None -> Noc_sched.Schedule_io.save ~path r.schedule);
        Noc_obs.Log.infof "wrote schedule %s" path)
      save;
    Option.iter
      (fun path ->
        Noc_sched.Svg_gantt.save ~path platform ctg r.schedule;
        Noc_obs.Log.infof "wrote SVG Gantt chart %s" path)
      svg;
    if utilization then
      Format.printf "%a@." Noc_sched.Utilization.pp
        (Noc_sched.Utilization.compute platform r.schedule);
    if gantt then print_string (Noc_sched.Gantt.render platform ctg r.schedule);
    let certified = report_certification ~label:"schedule" r.diagnostics in
    let dvfs_certified =
      match r.dvfs with
      | None -> true
      | Some d -> report_certification ~label:"dvfs schedule" d.scaled_diagnostics
    in
    Ok (certified && dvfs_certified)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Schedule a benchmark and print its metrics.")
    Term.(term_result
            (const run $ instance_term $ algo_arg $ gantt_arg $ graph_file_term $ save_arg
             $ utilization_arg $ svg_arg $ jobs_arg $ map_search_arg $ dvfs_term
             $ obs_term))

(* ------------------------------------------------------------------ *)
(* map                                                                 *)

let map_cmd =
  let chains_arg =
    Arg.(value & opt int Noc_map.Search.default_params.Noc_map.Search.chains
         & info [ "chains" ] ~docv:"K"
             ~doc:"Independent annealing chains (chain 0 starts from the \
                   identity mapping).")
  in
  let iters_arg =
    Arg.(value & opt int Noc_map.Search.default_params.Noc_map.Search.iters
         & info [ "iters" ] ~docv:"N" ~doc:"Proposals per chain.")
  in
  let survivors_arg =
    Arg.(value & opt int Noc_map.Search.default_params.Noc_map.Search.survivors
         & info [ "survivors" ] ~docv:"K"
             ~doc:"Best static mappings given a full pinned-EAS schedule and \
                   certification pass.")
  in
  let sa_seed_arg =
    Arg.(value & opt int Noc_map.Search.default_params.Noc_map.Search.seed
         & info [ "sa-seed" ] ~docv:"SEED"
             ~doc:"Seed of the annealer's PRNG streams (independent of the \
                   graph seed).")
  in
  let balance_arg =
    Arg.(value & opt float 0.
         & info [ "balance" ] ~docv:"W"
             ~doc:"Load-balance weight in units of the mean (task, PE) \
                   execution energy; 0 optimises Eq.-3 energy alone.")
  in
  let latency_arg =
    Arg.(value & opt float 0.
         & info [ "latency" ] ~docv:"W"
             ~doc:"Static communication-latency weight (per-arc serialisation \
                   plus router hops).")
  in
  let run instance input chains iters survivors
      sa_seed balance latency jobs save obs =
    with_obs obs @@ fun () ->
    if chains < 1 then failwith "--chains must be at least 1";
    if iters < 0 then failwith "--iters must be non-negative";
    if survivors < 1 then failwith "--survivors must be at least 1";
    if balance < 0. || latency < 0. then failwith "weights must be non-negative";
    let platform, ctg = load_instance instance input in
    (* The balance knob is given in mean-exec-energy units so the same
       setting means the same pressure on every platform; lifting the
       tables here (instead of inside [run]) converts it once. *)
    let kernel = Noc_eas.Kernel.build platform ctg in
    let tables = Noc_map.Objective.lift kernel in
    let weights =
      {
        Noc_map.Objective.latency;
        balance = balance *. Noc_map.Objective.mean_exec_energy tables;
      }
    in
    let params =
      { Noc_map.Search.default_params with chains; iters; survivors;
        seed = sa_seed; weights }
    in
    let r = Noc_map.Search.run ?jobs ~params kernel in
    Format.printf "%a@." Noc_map.Search.pp_result r;
    let winner = r.Noc_map.Search.winner in
    Format.printf "winner %s on %a / %a@."
      (Noc_map.Search.origin_name winner.origin)
      Noc_noc.Platform.pp platform Noc_ctg.Ctg.pp ctg;
    Format.printf "%a@." Noc_sched.Metrics.pp
      (Noc_sched.Metrics.compute platform ctg winner.schedule);
    Option.iter
      (fun path ->
        Noc_sched.Schedule_io.save ~path winner.schedule;
        Noc_obs.Log.infof "wrote schedule %s" path)
      save;
    ignore
      (report_certification ~label:"map winner"
         (Pipeline.certify platform ctg winner.schedule));
    Ok ()
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:"Anneal a task-to-tile mapping and print the Pareto candidates.")
    Term.(term_result
            (const run $ instance_term $ graph_file_term $ chains_arg $ iters_arg
             $ survivors_arg $ sa_seed_arg $ balance_arg $ latency_arg $ jobs_arg
             $ save_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate_cmd =
  let reschedule_arg =
    Arg.(value & flag
         & info [ "reschedule" ]
             ~doc:"Also run the degraded-platform rescheduler on the injected faults \
                   and replay its schedule for comparison.")
  in
  let criticality_arg =
    Arg.(value & opt (some int) None
         & info [ "criticality" ] ~docv:"N"
             ~doc:"Rank the platform's PEs and links by the deadline misses their \
                   individual permanent failure would inflict on the schedule; print \
                   the top N.")
  in
  let report label (outcome : Noc_sim.Executor.outcome) =
    let misses = List.length outcome.Noc_sim.Executor.deadline_misses in
    let lost = List.length outcome.Noc_sim.Executor.lost_tasks in
    Format.printf "%s: %d deadline misses, %d lost tasks, blocked %.1f@." label misses
      lost outcome.Noc_sim.Executor.waiting_time
  in
  let run instance algo input self_timed fault_specs reschedule criticality obs =
    exit_unless_certified @@ with_obs obs @@ fun () ->
    let platform, ctg = load_instance instance input in
    let faults = load_faults platform fault_specs in
    let r = Pipeline.run platform ctg (Pipeline.request algo) in
    let discipline =
      if self_timed then Noc_sim.Executor.Self_timed else Noc_sim.Executor.Time_triggered
    in
    let outcome = Noc_sim.Executor.run ~discipline ~faults platform ctg r.schedule in
    Format.printf "planned : %a@." Noc_sched.Metrics.pp r.metrics;
    let rescheduled_certified =
      if Noc_fault.Fault_set.is_empty faults then begin
        let realised =
          Noc_sched.Metrics.compute platform ctg outcome.Noc_sim.Executor.realised
        in
        Format.printf "realised: %a@." Noc_sched.Metrics.pp realised;
        Format.printf "time spent blocked on links: %.1f@."
          outcome.Noc_sim.Executor.waiting_time;
        true
      end
      else begin
        Format.printf "faults  : %a@." Noc_fault.Fault_set.pp faults;
        report "naive replay" outcome;
        if not reschedule then true
        else
          match Pipeline.reschedule platform ctg ~faults r.schedule with
          | Error msg -> failwith msg
          | Ok (resched, diagnostics) ->
            let stats = resched.stats in
            Format.printf "rescheduled: %d tasks migrated, %d transactions rerouted%s@."
              stats.migrated_tasks stats.rerouted_transactions
              (if stats.used_full_rerun then " (full re-run)" else "");
            report "rescheduled replay"
              (Noc_sim.Executor.run ~discipline ~faults platform ctg resched.schedule);
            report_certification ~label:"rescheduled schedule" diagnostics
      end
    in
    let planned_certified = report_certification ~label:"planned schedule" r.diagnostics in
    Option.iter
      (fun n ->
        Format.printf "criticality (top %d):@." n;
        Noc_eas.Fault_resched.criticality ~discipline platform ctg r.schedule
        |> List.filteri (fun i _ -> i < n)
        |> List.iter (fun c ->
               Format.printf "  %a@." Noc_eas.Fault_resched.pp_criticality c))
      criticality;
    Ok (rescheduled_certified && planned_certified)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Replay a schedule on the wormhole executor, optionally under injected \
             faults.")
    Term.(term_result
            (const run $ instance_term $ algo_arg $ input_arg $ self_timed_arg $ fault_arg
             $ reschedule_arg $ criticality_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

(* A version-3 schedule file carries per-task (level, freq, energy) but
   neither the unscaled base nor the full ladder. Both are implied: the
   reclamation pass freezes starts, so the base window is the scaled one
   shrunk by the recorded ratio, and any level no task sits at can take
   an arbitrary strictly-descending value — no per-task rule ever reads
   it, only the ladder's monotonicity check does. *)
let ladder_of_annotations path
    (annotations : Noc_sched.Schedule_io.annotation array) =
  let max_level =
    Array.fold_left
      (fun m (a : Noc_sched.Schedule_io.annotation) -> max m a.level)
      0 annotations
  in
  if max_level > 4096 then
    failwith
      (Printf.sprintf "%s: dvfs level %d is not a plausible ladder index" path
         max_level);
  let ratios = Array.make (max_level + 1) Float.nan in
  ratios.(0) <- 1.;
  Array.iter
    (fun (a : Noc_sched.Schedule_io.annotation) -> ratios.(a.level) <- a.freq)
    annotations;
  let n = Array.length ratios in
  for i = 1 to n - 1 do
    if Float.is_nan ratios.(i) then begin
      let j = ref (i + 1) in
      while Float.is_nan ratios.(!j) do incr j done;
      let step =
        (ratios.(!j) -. ratios.(i - 1)) /. float_of_int (!j - (i - 1))
      in
      for k = i to !j - 1 do
        ratios.(k) <- ratios.(i - 1) +. (step *. float_of_int (k - (i - 1)))
      done
    end
  done;
  ratios

let base_of_annotations scaled
    (annotations : Noc_sched.Schedule_io.annotation array) =
  let placements =
    Array.map
      (fun (a : Noc_sched.Schedule_io.annotation) ->
        let p = Noc_sched.Schedule.placement scaled a.task in
        { p with
          Noc_sched.Schedule.finish =
            p.start +. ((p.finish -. p.start) *. a.freq)
        })
      annotations
  in
  Noc_sched.Schedule.make ~placements
    ~transactions:(Noc_sched.Schedule.transactions scaled)

let analyze_cmd =
  let ctg_arg =
    Arg.(value & opt (some string) None
         & info [ "ctg" ] ~docv:"FILE"
             ~doc:"Lint the task graph loaded from FILE (text format; $(b,-) reads \
                   stdin) instead of the $(b,--benchmark) one.")
  in
  let platform_arg =
    Arg.(value & flag
         & info [ "platform" ]
             ~doc:"Platform-layer analyses only (platform lint and routing deadlock); \
                   no task graph is loaded.")
  in
  let schedule_arg =
    Arg.(value & opt (some string) None
         & info [ "schedule" ] ~docv:"FILE"
             ~doc:"Also certify the schedule loaded from FILE against the graph and \
                   platform (independent re-verification).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the diagnostics as a machine-readable JSON report (schema \
                   $(b,nocsched/analysis/v2); the header records the analyzed \
                   routing function and fault set, and is otherwise a strict \
                   superset of v1).")
  in
  let run instance ctg_file platform_only schedule_file fault_specs json =
    let platform, ctg =
      if platform_only then
        (Pipeline.mesh_platform ~routing:instance.routing instance.mesh, None)
      else
        let platform, ctg = load_instance instance ctg_file in
        (platform, Some ctg)
    in
    let faults = load_faults platform fault_specs in
    let deadlock =
      if Noc_fault.Fault_set.is_empty faults then
        Noc_analysis.Deadlock.check_platform platform
      else Noc_analysis.Deadlock.check_degraded platform faults
    in
    let platform_diags = Noc_analysis.Platform_lint.check ?ctg platform in
    let ctg_diags =
      match ctg with None -> [] | Some ctg -> Noc_analysis.Ctg_lint.check ctg
    in
    let certifier_diags, qos_report =
      match (schedule_file, ctg) with
      | None, _ -> ([], None)
      | Some _, None -> failwith "--schedule needs a task graph (omit --platform)"
      | Some path, Some ctg -> (
        match Noc_sched.Schedule_io.load_full ~path platform ctg with
        | Error msg -> failwith (path ^ ": " ^ msg)
        | Ok (schedule, dvfs) ->
          let qos =
            Noc_analysis.Qos.check platform
              (Noc_analysis.Qos.flows_of_schedule ctg schedule)
          in
          let base, scaled =
            match dvfs with
            | None -> (schedule, None)
            | Some annotations ->
              ( base_of_annotations schedule annotations,
                Some (ladder_of_annotations path annotations, annotations, schedule) )
          in
          (Pipeline.certify ?scaled platform ctg base @ qos.Noc_analysis.Qos.diagnostics,
           Some qos))
    in
    let diagnostics =
      Noc_analysis.Diagnostic.sort
        (deadlock @ platform_diags @ ctg_diags @ certifier_diags)
    in
    Format.printf "analyzed %a%s%s: %s@." Noc_noc.Platform.pp platform
      (match ctg with
      | None -> ""
      | Some ctg -> Format.asprintf " / %a" Noc_ctg.Ctg.pp ctg)
      (if Noc_fault.Fault_set.is_empty faults then ""
       else Format.asprintf " / faults %a" Noc_fault.Fault_set.pp faults)
      (match schedule_file with
      | None -> "deadlock + lint passes"
      | Some path -> "deadlock + lint passes + certifier on " ^ path);
    List.iter
      (fun d -> Format.printf "%a@." Noc_analysis.Diagnostic.pp d)
      diagnostics;
    Option.iter
      (fun (qos : Noc_analysis.Qos.report) ->
        let loaded =
          List.filter (fun (l : Noc_analysis.Qos.link_load) -> l.allocated > 0.)
            qos.loads
        in
        let busiest =
          List.stable_sort
            (fun a b ->
              compare (Noc_analysis.Qos.utilization b) (Noc_analysis.Qos.utilization a))
            loaded
        in
        Format.printf "qos: %d/%d links loaded%s@." (List.length loaded)
          (List.length qos.loads)
          (match busiest with
          | [] -> ""
          | top ->
            "; busiest "
            ^ String.concat ", "
                (List.filteri (fun i _ -> i < 3) top
                |> List.map (fun (l : Noc_analysis.Qos.link_load) ->
                       Format.asprintf "%a at %.0f%%" Noc_noc.Routing.pp_link l.link
                         (100. *. Noc_analysis.Qos.utilization l)))))
      qos_report;
    let errors, warnings, infos = Noc_analysis.Diagnostic.count diagnostics in
    if diagnostics = [] then Format.printf "analysis clean@."
    else
      Format.printf "%d error(s), %d warning(s), %d info(s)@." errors warnings infos;
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc
              (Noc_analysis.Diagnostic.to_json
                 ~routing:(Noc_noc.Turn_model.name instance.routing)
                 ~faults:fault_specs diagnostics)))
      json;
    (* Lint-style exit status: 0 clean, 1 warnings, 2 errors. *)
    (match Noc_analysis.Diagnostic.exit_code diagnostics with
    | 0 -> ()
    | code ->
      Format.pp_print_flush Format.std_formatter ();
      Stdlib.exit code);
    Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static analysis over the three model layers: routing deadlock-freedom \
             (channel-dependency graph), task-graph and platform lints, and an \
             independent schedule certifier. Exits 0 when clean, 1 on warnings, 2 \
             on errors.")
    Term.(term_result
            (const run $ instance_term $ ctg_arg $ platform_arg $ schedule_arg $ fault_arg
             $ json_arg))

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

let experiment_cmd =
  let which_arg =
    let doc =
      "Campaign id: fig5, fig6, tab1, tab2, tab3, fig7, split, ablation, topo, \
       weights, repairmoves, dvfs, baselines, buffering, faults or mapping. Omit \
       the id to run every campaign (optionally filtered by $(b,--only))."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let only_arg =
    Arg.(value & opt_all string []
         & info [ "only" ] ~docv:"CAMPAIGN"
             ~doc:"With no positional id, run only this campaign (repeatable, \
                   order preserved) instead of all of them. An unknown name \
                   exits 2 listing the known campaigns.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Scale the random suites down.")
  in
  let map_search_arg =
    Arg.(value & flag
         & info [ "map-search" ]
             ~doc:"Add an annealed task-to-tile mapping row to the $(b,topo) \
                   campaign (pinned-EAS evaluation of the search winner).")
  in
  let run which only quick map_search jobs obs =
    with_obs obs @@ fun () ->
    let scale = if quick then Some 0.2 else None in
    let campaigns =
      [
        ( "fig5",
          fun () ->
            print_string
              (Noc_experiments.Random_suite.render
                 (Noc_experiments.Random_suite.run ?jobs ?scale
                    Noc_tgff.Category.Category_i)) );
        ( "fig6",
          fun () ->
            print_string
              (Noc_experiments.Random_suite.render
                 (Noc_experiments.Random_suite.run ?jobs ?scale
                    Noc_tgff.Category.Category_ii)) );
        ( "tab1",
          fun () ->
            print_string
              (Noc_experiments.Msb_tables.render
                 (Noc_experiments.Msb_tables.run Noc_experiments.Msb_tables.Encoder)) );
        ( "tab2",
          fun () ->
            print_string
              (Noc_experiments.Msb_tables.render
                 (Noc_experiments.Msb_tables.run Noc_experiments.Msb_tables.Decoder)) );
        ( "tab3",
          fun () ->
            print_string
              (Noc_experiments.Msb_tables.render
                 (Noc_experiments.Msb_tables.run
                    Noc_experiments.Msb_tables.Integrated)) );
        ( "fig7",
          fun () ->
            print_string (Noc_experiments.Tradeoff.render (Noc_experiments.Tradeoff.run ())) );
        ( "split",
          fun () ->
            print_string
              (Noc_experiments.Energy_split.render (Noc_experiments.Energy_split.run ())) );
        ( "ablation",
          fun () ->
            print_string
              (Noc_experiments.Ablation.render (Noc_experiments.Ablation.run ?jobs ())) );
        ( "topo",
          fun () ->
            print_string
              (Noc_experiments.Topology_compare.render
                 (Noc_experiments.Topology_compare.run ?jobs ~map_search ())) );
        ( "weights",
          fun () ->
            print_string
              (Noc_experiments.Weight_ablation.render
                 (Noc_experiments.Weight_ablation.run ?jobs ())) );
        ( "repairmoves",
          fun () ->
            let scale = if quick then Some 0.3 else None in
            print_string
              (Noc_experiments.Repair_ablation.render
                 (Noc_experiments.Repair_ablation.run ?jobs ?scale ())) );
        ( "dvfs",
          fun () ->
            let rows =
              match scale with
              | Some scale ->
                Noc_experiments.Dvfs_campaign.run ?jobs ~indices:[ 0; 1 ] ~scale ()
              | None -> Noc_experiments.Dvfs_campaign.run ?jobs ()
            in
            print_string (Noc_experiments.Dvfs_campaign.render rows) );
        ( "baselines",
          fun () ->
            print_string
              (Noc_experiments.Baselines_compare.render
                 (Noc_experiments.Baselines_compare.run ?jobs ())) );
        ( "buffering",
          fun () ->
            print_string (Noc_experiments.Buffering.render (Noc_experiments.Buffering.run ())) );
        ( "faults",
          fun () ->
            let result =
              if quick then
                Noc_experiments.Fault_campaign.run ?jobs ~scale:0.08 ~n_graphs:2
                  ~n_trials:2 ()
              else Noc_experiments.Fault_campaign.run ?jobs ()
            in
            print_string (Noc_experiments.Fault_campaign.render result) );
        ( "mapping",
          fun () ->
            let p =
              if quick then
                Noc_experiments.Topology_compare.pareto ?jobs ~meshes:[ (8, 8) ]
                  ~scale:0.2 ()
              else Noc_experiments.Topology_compare.pareto ?jobs ()
            in
            print_string (Noc_experiments.Topology_compare.render_pareto p) );
      ]
    in
    let known () = String.concat ", " (List.map fst campaigns) in
    let find name =
      match List.assoc_opt name campaigns with
      | Some f -> Ok (name, f)
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown experiment %S; known campaigns: %s" name
                (known ())))
    in
    let selected =
      match (which, only) with
      | Some _, _ :: _ ->
        Error (`Msg "pass either a positional campaign id or --only, not both")
      | Some id, [] -> Result.map (fun c -> [ c ]) (find id)
      | None, [] -> Ok campaigns
      | None, names ->
        List.fold_left
          (fun acc name ->
            Result.bind acc (fun cs -> Result.map (fun c -> cs @ [ c ]) (find name)))
          (Ok []) names
    in
    (* Every campaign schedule passes Pipeline.gate; a rejected one
       stops the run, naming its rule and location, and exits 1. *)
    let run_campaign (name, f) =
      Noc_obs.Log.infof "experiment %s%s" name (if quick then " (quick)" else "");
      try f ()
      with Pipeline.Uncertified d ->
        Noc_obs.Log.errorf "certifier: experiment %s NOT certified: %s" name
          (Format.asprintf "%a" Noc_analysis.Diagnostic.pp d);
        Stdlib.exit 1
    in
    Result.map (List.iter run_campaign) selected
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one of the paper's tables or figures.")
    Term.(term_result
            (const run $ which_arg $ only_arg $ quick_arg $ map_search_arg
             $ jobs_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve_cmd =
  let socket_arg =
    Arg.(value & opt string "/tmp/nocsched.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket the daemon listens on (client mode connects \
                   to it).")
  in
  let cache_arg =
    Arg.(value & opt int 64
         & info [ "cache" ] ~docv:"N"
             ~doc:"Certified-schedule cache capacity (SIEVE entries).")
  in
  let call_arg =
    Arg.(value & opt (some string) None
         & info [ "call" ] ~docv:"OP"
             ~doc:"Client mode: send one request ($(b,schedule), $(b,simulate), \
                   $(b,reschedule), $(b,stats) or $(b,shutdown)) to a running \
                   daemon, print the reply line and exit 0 when the daemon \
                   reported success.")
  in
  let raw_arg =
    Arg.(value & opt (some string) None
         & info [ "raw" ] ~docv:"LINE"
             ~doc:"Client mode: send LINE verbatim (one protocol JSON object) \
                   and print the reply.")
  in
  let decisions_arg =
    Arg.(value & flag
         & info [ "decisions" ]
             ~doc:"Ask for the EAS decision log in the $(b,--call) schedule \
                   reply.")
  in
  let dvfs_term =
    dvfs_term
      ~doc:"Ask for DVFS slack reclamation in the $(b,--call) schedule \
            reply (cached under its own key, never aliasing the unscaled \
            schedule)."
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Daemon mode: print the counter/histogram report (request \
                   latencies included) after shutdown.")
  in
  let retries_arg =
    Arg.(value & opt int 100
         & info [ "retries" ] ~docv:"N"
             ~doc:"Client mode: connection attempts 50 ms apart, so a freshly \
                   started daemon has time to bind its socket.")
  in
  let build_call op ~input ~mesh ~algo ~faults ~self_timed ~decisions ~dvfs =
    let ctg_text () =
      match input with
      | Some path -> read_ctg_text path
      | None -> failwith ("--call " ^ op ^ " needs --input FILE")
    in
    (match (op, dvfs) with
    | "schedule", _ | _, None -> ()
    | other, Some _ -> failwith ("--dvfs only makes sense with --call schedule, not " ^ other));
    match op with
    | "stats" -> Noc_serve.Protocol.(request_to_line Stats)
    | "shutdown" -> Noc_serve.Protocol.(request_to_line Shutdown)
    | "schedule" ->
      Noc_serve.Protocol.(
        request_to_line
          (Schedule { ctg_text = ctg_text (); mesh; algo; decisions; dvfs }))
    | "simulate" ->
      Noc_serve.Protocol.(
        request_to_line
          (Simulate { ctg_text = ctg_text (); mesh; algo; faults; self_timed }))
    | "reschedule" ->
      Noc_serve.Protocol.(
        request_to_line (Reschedule { ctg_text = ctg_text (); mesh; algo; faults }))
    | other ->
      failwith
        (Printf.sprintf
           "unknown --call %S (known: schedule, simulate, reschedule, stats, shutdown)"
           other)
  in
  let run socket cache call raw input mesh algo faults self_timed decisions
      dvfs stats retries =
    Noc_obs.Log.init_from_env ();
    match (call, raw) with
    | Some _, Some _ -> Error (`Msg "--call and --raw are mutually exclusive")
    | None, None ->
      if cache < 1 then failwith "--cache must be at least 1";
      Noc_serve.Server.run
        { Noc_serve.Server.socket_path = socket; capacity = cache };
      if stats then print_string (Noc_obs.Report.render ());
      Ok ()
    | _ ->
      let line =
        match (call, raw) with
        | Some op, None ->
          build_call op ~input ~mesh ~algo ~faults ~self_timed ~decisions ~dvfs
        | None, Some line -> line
        | None, None | Some _, Some _ -> assert false
      in
      let reply =
        Noc_serve.Client.one_shot ~retries:(max 0 retries) ~socket_path:socket line
      in
      print_endline reply;
      (match Noc_obs.Json.parse reply with
      | Ok obj when Noc_obs.Json.member "ok" obj = Some (Noc_obs.Json.Bool true) ->
        Ok ()
      | Ok _ | Error _ ->
        Format.pp_print_flush Format.std_formatter ();
        Stdlib.exit 1)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Scheduling as a service: a Unix-socket daemon with a certified \
             schedule cache and incremental fault rescheduling (newline-delimited \
             JSON, schema $(b,nocsched/serve/v1)). Without $(b,--call)/$(b,--raw) \
             it runs the daemon in the foreground until a shutdown request.")
    Term.(term_result
            (const run $ socket_arg $ cache_arg $ call_arg $ raw_arg
             $ input_arg $ mesh_arg $ algo_arg $ fault_arg $ self_timed_arg
             $ decisions_arg $ dvfs_term $ stats_arg
             $ retries_arg))

(* ------------------------------------------------------------------ *)
(* trace-check                                                         *)

let trace_check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Chrome trace-event JSON file to validate.")
  in
  let require_counters_arg =
    Arg.(value & flag
         & info [ "require-counters" ]
             ~doc:"Also require a counter event and non-empty counter totals.")
  in
  let run file require_counters =
    Noc_obs.Log.init_from_env ();
    match Noc_obs.Trace_check.check_file ~require_counters file with
    | Ok () ->
      Format.printf "%s: valid nocsched/trace/v1@." file;
      Ok ()
    | Error msg ->
      Noc_obs.Log.errorf "%s: %s" file msg;
      Format.pp_print_flush Format.std_formatter ();
      Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a trace produced by $(b,--trace) against the \
             $(b,nocsched/trace/v1) schema: JSON shape, per-domain span nesting, \
             counter totals. Exits 0 when valid, 1 otherwise.")
    Term.(term_result (const run $ file_arg $ require_counters_arg))

let () =
  let info =
    Cmd.info "nocsched" ~version:"1.0.0"
      ~doc:"Energy-aware communication and task scheduling for NoC architectures"
  in
  let group =
    Cmd.group info
      [
        generate_cmd; schedule_cmd; map_cmd; simulate_cmd; analyze_cmd;
        experiment_cmd; serve_cmd; trace_check_cmd;
      ]
  in
  (* Uniform failure contract: unknown subcommands, malformed flags and
     failed runs all print to stderr and exit 2 (cmdliner's defaults
     would scatter them over 124/125). Analyses that define their own
     lint-style exit codes call [Stdlib.exit] before reaching here. *)
  match Cmd.eval_value ~catch:false group with
  | Ok (`Ok ()) | Ok `Version | Ok `Help -> exit 0
  | Error (`Parse | `Term | `Exn) -> exit 2
  | exception Failure msg ->
    Printf.eprintf "nocsched: %s\n%!" msg;
    exit 2
  | exception exn ->
    Printf.eprintf "nocsched: internal error: %s\n%!" (Printexc.to_string exn);
    exit 2
