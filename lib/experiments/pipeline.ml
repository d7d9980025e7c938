module Schedule = Noc_sched.Schedule
module Metrics = Noc_sched.Metrics
module Certify = Noc_analysis.Certify
module Diagnostic = Noc_analysis.Diagnostic
module Reclaim = Noc_dvfs.Reclaim

let mesh_platform ?routing (cols, rows) =
  Noc_noc.Platform.heterogeneous_mesh ~seed:42 ?routing ~cols ~rows ()

type request = {
  algo : Runner.algo;
  pinned : int array option;
  ladder : Noc_dvfs.Vf_table.t option;
}

let request algo = { algo; pinned = None; ladder = None }

type dvfs = {
  reclaim : Reclaim.result;
  scaled_misses : int;
  scaled_diagnostics : Diagnostic.t list;
}

type t = {
  schedule : Schedule.t;
  metrics : Metrics.t;
  runtime_seconds : float;
  diagnostics : Diagnostic.t list;
  dvfs : dvfs option;
}

(* Each certifier check is called from this one place, so the CLI, the
   daemon and the campaigns cannot drift apart in what they verify: the
   base check with its claimed Eq.-3 energy, and the scaled check of a
   (raw ladder, annotations, scaled schedule) triple against its base. *)
let check_base (metrics : Metrics.t) platform ctg base =
  Certify.check ~claimed_energy:metrics.total_energy platform ctg base

let check_scaled ~base platform ctg (ratios, annotations, scaled) =
  Certify.check_scaled ~ratios ~annotations ~base platform ctg scaled

let certify ?scaled platform ctg base =
  check_base (Metrics.compute platform ctg base) platform ctg base
  @ Option.fold ~none:[] ~some:(check_scaled ~base platform ctg) scaled

let reclaim ~table platform ctg base =
  let r = Reclaim.run ~table ctg base in
  {
    reclaim = r;
    scaled_misses = Metrics.miss_count (Metrics.compute platform ctg r.schedule);
    scaled_diagnostics =
      check_scaled ~base platform ctg
        (Noc_dvfs.Vf_table.ratios table, r.annotations, r.schedule);
  }

let schedule_of platform ctg { algo; pinned; ladder = _ } =
  match algo with
  | Runner.Eas -> (Noc_eas.Eas.schedule ?pinned platform ctg).schedule
  | Runner.Eas_base -> (Noc_eas.Eas.schedule ~repair:false ?pinned platform ctg).schedule
  | Runner.Edf ->
    if pinned <> None then invalid_arg "Pipeline.run: EDF does not take a pinned mapping";
    Noc_edf.Edf.schedule platform ctg

let run platform ctg request =
  let t0 = Noc_util.Clock.wall_s () in
  let schedule = schedule_of platform ctg request in
  let runtime_seconds = Noc_util.Clock.wall_s () -. t0 in
  let metrics = Metrics.compute platform ctg schedule in
  {
    schedule;
    metrics;
    runtime_seconds;
    diagnostics = check_base metrics platform ctg schedule;
    dvfs = Option.map (fun table -> reclaim ~table platform ctg schedule) request.ladder;
  }

exception Uncertified of Diagnostic.t

let () =
  Printexc.register_printer (function
    | Uncertified d ->
      Some (Format.asprintf "schedule failed certification: %a" Diagnostic.pp d)
    | _ -> None)

(* A deadline miss is a result the tables report; any other error means
   the schedule is not what its row claims. *)
let gate diagnostics =
  match
    List.find_opt
      (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error && d.rule <> "sched/deadline")
      diagnostics
  with
  | Some d -> raise (Uncertified d)
  | None -> ()

let evaluate platform ctg request =
  let t = run platform ctg request in
  gate t.diagnostics;
  t

let refusal diags =
  let errors, warnings, _ = Diagnostic.count diags in
  if errors = 0 then None
  else
    Some
      (Printf.sprintf "schedule failed certification: %d error(s), %d warning(s); first: %s"
         errors warnings
         (match
            List.find_opt
              (fun d -> d.Diagnostic.severity = Diagnostic.Error)
              diags
          with
         | Some d -> Format.asprintf "%a" Diagnostic.pp d
         | None -> "?"))

let reschedule platform ctg ~faults schedule =
  match Noc_eas.Fault_resched.run platform ctg ~faults schedule with
  | exception Invalid_argument msg -> Error ("reschedule: " ^ msg)
  | outcome -> Ok (outcome, Certify.check platform ctg outcome.schedule)
