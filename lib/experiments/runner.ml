type algo = Eas | Eas_base | Edf

let all_algos = [ Eas_base; Eas; Edf ]

let algo_name = function
  | Eas -> "EAS"
  | Eas_base -> "EAS-base"
  | Edf -> "EDF"

let algo_of_string s =
  match String.lowercase_ascii s with
  | "eas" -> Some Eas
  | "eas-base" -> Some Eas_base
  | "edf" -> Some Edf
  | _ -> None

type evaluation = {
  algo : algo;
  metrics : Noc_sched.Metrics.t;
  runtime_seconds : float;
  resource_violations : int;
}

(* Campaigns wrap each trial body in [traced ~label]: the label (unique
   per trial, derived from the trial's seed/configuration, never from
   which pool worker ran it) keys the decision log so its export is
   identical at every --jobs count, and the span groups the trial's
   scheduler/simulator spans in the trace timeline. *)
let traced ~label f =
  Noc_obs.Decisions.with_run label (fun () ->
      Noc_obs.Trace.span ~cat:"experiment" "experiment/trial"
        ~args:(fun () -> [ ("trial", Noc_obs.Trace.String label) ])
        f)

let schedule_of ?comm_model ?pinned ?kernel ?jobs algo platform ctg =
  match algo with
  | Eas -> (Noc_eas.Eas.schedule ?comm_model ?kernel ?pinned ?jobs platform ctg).schedule
  | Eas_base ->
    (Noc_eas.Eas.schedule ~repair:false ?comm_model ?kernel ?pinned ?jobs platform ctg)
      .schedule
  | Edf ->
    if pinned <> None then
      invalid_arg "Runner.schedule_of: EDF does not take a pinned mapping";
    Noc_edf.Edf.schedule ?comm_model platform ctg

let resource_violations platform ctg schedule =
  Noc_sched.Validate.check platform ctg schedule
  |> List.filter (function
       | Noc_sched.Validate.Deadline_miss _ -> false
       | Noc_sched.Validate.Malformed _ | Noc_sched.Validate.Task_overlap _
       | Noc_sched.Validate.Link_conflict _ | Noc_sched.Validate.Dependency _ -> true)
  |> List.length

let evaluate ?pinned algo platform ctg =
  Noc_obs.Log.debugf "evaluate %s: %d tasks on %d PEs" (algo_name algo)
    (Noc_ctg.Ctg.n_tasks ctg)
    (Noc_noc.Platform.n_pes platform);
  let runtime_seconds, schedule =
    let t0 = Noc_util.Clock.wall_s () in
    let s = schedule_of ?pinned algo platform ctg in
    (Noc_util.Clock.wall_s () -. t0, s)
  in
  let metrics = Noc_sched.Metrics.compute platform ctg schedule in
  let resource_violations = resource_violations platform ctg schedule in
  assert (resource_violations = 0);
  { algo; metrics; runtime_seconds; resource_violations }

let savings ~baseline v =
  assert (baseline > 0.);
  (baseline -. v) /. baseline
