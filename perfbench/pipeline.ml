(* One instance through the whole offline pipeline, from CTG text:
   parse -> EAS (kernel -> budget -> level_sched -> repair) -> certify ->
   DVFS reclaim + scaled certify -> executor replay, with the output
   checks every workload applies.

   The untraced path calls [Eas.schedule]; the traced path composes the
   EAS stages by hand and times every call into a layer's public
   function. Both must commit byte-identical schedules. *)

open Noc_ctg
open Noc_sched
open Noc_eas

(* A stage timer: [timed name f] runs [f]. The traced timer also
   records the call's wall time under [name]. *)
type timer = { timed : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { timed = (fun _ f -> f ()) }

(* Stage names, in pipeline order; each is a layer's public entry point. *)
let stages =
  [
    "ctg_io.parse";
    "kernel.build";
    "budget.compute";
    "level_sched.run";
    "repair.run";
    "certify.check";
    "reclaim.run";
    "certify.check_scaled";
    "executor.run";
  ]

type recorder = (string, Common.Samples.t) Hashtbl.t

let recorder () : recorder =
  let r = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace r s (Common.Samples.create ())) stages;
  r

let recording (r : recorder) =
  {
    timed =
      (fun name f ->
        let t0 = Common.now () in
        let v = f () in
        Common.Samples.add (Hashtbl.find r name) (Common.ms_since t0);
        v);
  }

(* What one pass through the pipeline produced; judged by [assess]
   outside the instance's timed window. *)
type raw = {
  ctg : Ctg.t;
  schedule : Schedule.t;  (** The committed (unscaled) schedule. *)
  repair : Repair.stats option;  (** [None] when repair did not run. *)
  certified : Noc_analysis.Diagnostic.t list;
  reclaim : Noc_dvfs.Reclaim.result;
  certified_scaled : Noc_analysis.Diagnostic.t list;
  sim : Noc_sim.Executor.outcome;
}

let vf_table = Noc_dvfs.Vf_table.default

let schedule_of ~staged (t : timer) platform ctg =
  if staged then (
    let kernel = t.timed "kernel.build" (fun () -> Kernel.build platform ctg) in
    let budget = t.timed "budget.compute" (fun () -> Budget.compute ~kernel ctg) in
    let base =
      t.timed "level_sched.run" (fun () ->
          Level_sched.run ~kernel ~jobs:1 platform ctg budget)
    in
    if Eas.count_misses ctg base = 0 then (base, None)
    else
      let s, st = t.timed "repair.run" (fun () -> Repair.run ~kernel platform ctg base) in
      (s, Some st))
  else
    let o = Eas.schedule ~jobs:1 platform ctg in
    (o.Eas.schedule, o.Eas.stats.Eas.repair)

(* Certifies, reclaims, re-certifies and replays a committed schedule.
   The executor dispatches assignment and per-PE order only, at f_max,
   so it replays the committed unscaled schedule. *)
let finish (timer : timer) platform ctg ~repair schedule =
  let t = timer.timed in
  let certified = t "certify.check" (fun () -> Noc_analysis.Certify.check platform ctg schedule) in
  let reclaim = t "reclaim.run" (fun () -> Noc_dvfs.Reclaim.run ~table:vf_table ctg schedule) in
  let certified_scaled =
    t "certify.check_scaled" (fun () ->
        Noc_analysis.Certify.check_scaled
          ~ratios:(Noc_dvfs.Vf_table.ratios vf_table)
          ~annotations:reclaim.Noc_dvfs.Reclaim.annotations ~base:schedule platform ctg
          reclaim.Noc_dvfs.Reclaim.schedule)
  in
  let sim = t "executor.run" (fun () -> Noc_sim.Executor.run platform ctg schedule) in
  { ctg; schedule; repair; certified; reclaim; certified_scaled; sim }

(* [run ~staged platform text] carries one CTG text through the
   pipeline; [Error] only when the text does not parse. *)
let run ?(timer = untimed) ~staged platform text =
  match timer.timed "ctg_io.parse" (fun () -> Ctg_io.of_string text) with
  | Error msg -> Error ("parse: " ^ msg)
  | Ok ctg ->
    let schedule, repair = schedule_of ~staged timer platform ctg in
    Ok (finish timer platform ctg ~repair schedule)

type outcome = {
  tasks : int;
  deadline_tasks : int;
  misses : int;  (** Deadline misses of the committed schedule. *)
  energy : float;  (** Certified Eq.-3 energy after DVFS reclaim, nJ. *)
  downclocked : int;
  repair : Repair.stats option;
  schedule_text : string;  (** [Schedule_io] text of the committed schedule. *)
  errors : string list;  (** Failed output checks; empty when all pass. *)
}

(* Error diagnostics other than deadline misses: misses are counted by
   the benchmark, not treated as failures. *)
let structural_errors diags =
  List.filter_map
    (fun (d : Noc_analysis.Diagnostic.t) ->
      if d.severity = Noc_analysis.Diagnostic.Error && d.rule <> "sched/deadline"
      then Some d.rule
      else None)
    diags

(* The output checks: both certificates free of structural errors, and
   the executor replay reproducing the planned energy and misses. *)
let assess platform (r : raw) =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match structural_errors r.certified with
  | [] -> ()
  | rules -> error "certify: %s" (String.concat "," rules));
  (match structural_errors r.certified_scaled with
  | [] -> ()
  | rules -> error "certify scaled: %s" (String.concat "," rules));
  let misses = Eas.count_misses r.ctg r.schedule in
  let planned_energy = Noc_analysis.Certify.energy platform r.ctg r.schedule in
  let sim = r.sim in
  let realised_energy = Noc_analysis.Certify.energy platform r.ctg sim.Noc_sim.Executor.realised in
  if sim.Noc_sim.Executor.lost_tasks <> [] then error "executor lost tasks";
  if List.length sim.Noc_sim.Executor.deadline_misses <> misses then
    error "executor misses %d, planned %d"
      (List.length sim.Noc_sim.Executor.deadline_misses)
      misses;
  if not (Noc_util.Stats.fequal ~eps:1e-9 planned_energy realised_energy) then
    error "executor energy %.17g, planned %.17g" realised_energy planned_energy;
  {
    tasks = Ctg.n_tasks r.ctg;
    deadline_tasks = List.length (Ctg.deadline_tasks r.ctg);
    misses;
    energy = planned_energy -. Noc_dvfs.Reclaim.reclaimed r.reclaim;
    downclocked = r.reclaim.Noc_dvfs.Reclaim.downclocked;
    repair = r.repair;
    schedule_text = Schedule_io.to_string r.schedule;
    errors = List.rev !errors;
  }
