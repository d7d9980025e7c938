type algo = Eas | Eas_base | Edf

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

let savings ~baseline v =
  assert (baseline > 0.);
  (baseline -. v) /. baseline
