module Executor = Noc_sim.Executor
module Fault_set = Noc_fault.Fault_set

type replay = { misses : int; lost : int }

type algo_trial = {
  naive : replay;  (** Replaying the fault-free schedule under faults. *)
  resched : replay option;
      (** Replaying the certified reschedule; [None] when the fault set
          made the graph unschedulable. *)
  migrated : int;
  rerouted : int;
}

type trial = {
  graph : int;
  seed : int;
  faults : string;
  cyclic_cdg : bool;
  eas : algo_trial;
  edf : algo_trial;
}

type summary = {
  algo : Runner.algo;
  trials : int;
  naive_survived : int;
  resched_survived : int;
  total_migrated : int;
  total_rerouted : int;
}

type result = {
  scale : float;
  trials : trial list;
  summaries : summary list;
  cyclic_routesets : int;
}

let replay_of (outcome : Executor.outcome) =
  {
    misses = List.length outcome.deadline_misses;
    lost = List.length outcome.lost_tasks;
  }

let run_algo_trial platform ctg ~faults schedule =
  let naive = replay_of (Executor.run ~faults platform ctg schedule) in
  match Pipeline.reschedule platform ctg ~faults schedule with
  | Error _ -> { naive; resched = None; migrated = 0; rerouted = 0 }
  | Ok ({ schedule = rescheduled; stats }, diagnostics) ->
    Pipeline.gate diagnostics;
    {
      naive;
      resched = Some (replay_of (Executor.run ~faults platform ctg rescheduled));
      migrated = stats.migrated_tasks;
      rerouted = stats.rerouted_transactions;
    }

let survived = function Some { misses = 0; lost = 0 } -> true | Some _ | None -> false

let summarise algo pick trials =
  List.fold_left
    (fun (acc : summary) t ->
      let a = pick t in
      {
        acc with
        trials = acc.trials + 1;
        naive_survived =
          (acc.naive_survived + if a.naive.misses = 0 && a.naive.lost = 0 then 1 else 0);
        resched_survived = (acc.resched_survived + if survived a.resched then 1 else 0);
        total_migrated = acc.total_migrated + a.migrated;
        total_rerouted = acc.total_rerouted + a.rerouted;
      })
    {
      algo;
      trials = 0;
      naive_survived = 0;
      resched_survived = 0;
      total_migrated = 0;
      total_rerouted = 0;
    }
    trials

let run ?jobs ?(scale = 0.12) ?(n_graphs = 3) ?(n_trials = 4) () =
  let platform = Noc_tgff.Category.platform in
  Noc_noc.Platform.warm_routes platform;
  let params = Noc_tgff.Category.scaled_params Noc_tgff.Category.Category_i ~scale in
  (* Two fan-outs: first the per-graph schedules (built once, then only
     read), then every (graph, fault-seed) trial. Each trial samples its
     own fault set and builds its own degraded views and reschedules, so
     the domains share nothing mutable. *)
  let graphs =
    Noc_util.Pool.map_range ?jobs ~n:n_graphs (fun graph ->
        Runner.traced ~label:(Printf.sprintf "fault_campaign/graph=%d" graph)
        @@ fun () ->
        let ctg =
          Noc_tgff.Generate.generate ~params ~platform ~seed:(1_000 + graph)
        in
        (* Algorithm-independent fault horizon so EAS and EDF face the
           same fault sets. *)
        let horizon = 2. *. Noc_ctg.Ctg.min_critical_path ctg in
        let schedule algo =
          (Pipeline.evaluate platform ctg (Pipeline.request algo)).schedule
        in
        let eas_schedule = schedule Runner.Eas in
        let edf_schedule = schedule Runner.Edf in
        (graph, ctg, horizon, eas_schedule, edf_schedule))
  in
  let trials =
    Noc_util.Pool.map_list ?jobs
      (fun ((graph, ctg, horizon, eas_schedule, edf_schedule), t) ->
        let seed = (graph * 100) + t in
        Runner.traced
          ~label:(Printf.sprintf "fault_campaign/graph=%d/fault_seed=%d" graph seed)
        @@ fun () ->
        let faults = Fault_set.sample ~seed ~platform ~horizon () in
        (* The BFS detour routes carry no deadlock-freedom guarantee:
           record whether their channel-dependency graph is cyclic. *)
        let cyclic_cdg =
          not
            (Noc_analysis.Cdg.is_acyclic
               (Noc_analysis.Deadlock.cdg_of_degraded
                  (Fault_set.degraded faults platform)))
        in
        {
          graph;
          seed;
          faults = Fault_set.key faults;
          cyclic_cdg;
          eas = run_algo_trial platform ctg ~faults eas_schedule;
          edf = run_algo_trial platform ctg ~faults edf_schedule;
        })
      (List.concat_map
         (fun g -> List.map (fun t -> (g, t)) (List.init n_trials Fun.id))
         graphs)
  in
  {
    scale;
    trials;
    summaries =
      [
        summarise Runner.Eas (fun t -> t.eas) trials;
        summarise Runner.Edf (fun t -> t.edf) trials;
      ];
    cyclic_routesets =
      List.length (List.filter (fun t -> t.cyclic_cdg) trials);
  }

let render result =
  let header =
    [
      "graph"; "seed"; "faults"; "detour CDG"; "EAS naive"; "EAS resched";
      "EDF naive"; "EDF resched";
    ]
  in
  let outcome_of a =
    let show { misses; lost } =
      if misses = 0 && lost = 0 then "ok" else Printf.sprintf "%dm/%dl" misses lost
    in
    ( show a.naive,
      match a.resched with
      | None -> "unschedulable"
      | Some r -> show r )
  in
  let rows =
    List.map
      (fun t ->
        let eas_naive, eas_resched = outcome_of t.eas in
        let edf_naive, edf_resched = outcome_of t.edf in
        [
          string_of_int t.graph; string_of_int t.seed; t.faults;
          (if t.cyclic_cdg then "CYCLIC" else "acyclic");
          eas_naive; eas_resched; edf_naive; edf_resched;
        ])
      result.trials
  in
  let table = Noc_util.Text_table.render ~header rows in
  let summary_lines =
    List.map
      (fun s ->
        Printf.sprintf
          "%s: naive survives %d/%d fault sets, rescheduled %d/%d (%d migrations, %d \
           detoured transactions)"
          (Runner.algo_name s.algo) s.naive_survived s.trials s.resched_survived
          s.trials s.total_migrated s.total_rerouted)
      result.summaries
  in
  let cdg_line =
    Printf.sprintf
      "detour routing: %d/%d fault sets yield a cyclic channel-dependency graph \
       (deadlock-prone under wormhole switching)"
      result.cyclic_routesets
      (List.length result.trials)
  in
  Printf.sprintf "%s\n%s\n%s\n" table (String.concat "\n" summary_lines) cdg_line

let to_json result =
  let open Noc_obs.Json in
  let replay { misses; lost } = Obj [ ("misses", int misses); ("lost", int lost) ] in
  let algo a =
    Obj
      [
        ("naive", replay a.naive);
        ("resched", Option.fold ~none:Null ~some:replay a.resched);
        (* Every reschedule passed the gate, so it is valid exactly
           when it exists. *)
        ("valid", Bool (a.resched <> None));
        ("migrated", int a.migrated);
        ("rerouted", int a.rerouted);
      ]
  in
  let trial t =
    Obj
      [
        ("graph", int t.graph); ("seed", int t.seed); ("faults", String t.faults);
        ("cyclic_cdg", Bool t.cyclic_cdg); ("eas", algo t.eas); ("edf", algo t.edf);
      ]
  in
  let summary s =
    Obj
      [
        ("algo", String (Runner.algo_name s.algo)); ("trials", int s.trials);
        ("naive_survived", int s.naive_survived);
        ("resched_survived", int s.resched_survived);
        ("migrated", int s.total_migrated); ("rerouted", int s.total_rerouted);
      ]
  in
  Obj
    [
      ("schema", String "nocsched/bench-faults/v2");
      ("scale", Number result.scale);
      ("trials", List (List.map trial result.trials));
      ("summaries", List (List.map summary result.summaries));
      ("cyclic_routesets", int result.cyclic_routesets);
    ]
