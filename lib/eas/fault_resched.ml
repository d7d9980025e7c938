module Schedule = Noc_sched.Schedule
module Degraded = Noc_noc.Degraded
module Fault = Noc_fault.Fault
module Fault_set = Noc_fault.Fault_set

type stats = {
  migrated_tasks : int;
  rerouted_transactions : int;
  misses : int;
  lateness : float;
  used_full_rerun : bool;
  repair : Repair.stats option;
}

type outcome = { schedule : Schedule.t; stats : stats }

let count_rerouted original candidate =
  let originals = Schedule.transactions original in
  Array.fold_left
    (fun acc (tr : Schedule.transaction) ->
      if tr.route <> originals.(tr.edge).Schedule.route then acc + 1 else acc)
    0
    (Schedule.transactions candidate)

let finish ~original ~migrated ~used_full_rerun ~repair schedule ctg =
  let misses, lateness = Repair.score ctg schedule in
  {
    schedule;
    stats =
      {
        migrated_tasks = migrated;
        rerouted_transactions = count_rerouted original schedule;
        misses;
        lateness;
        used_full_rerun;
        repair;
      };
  }

let run platform ctg ~faults schedule =
  let degraded = Fault_set.degraded faults platform in
  if Degraded.is_trivial degraded then
    finish ~original:schedule ~migrated:0 ~used_full_rerun:false ~repair:None schedule
      ctg
  else begin
    let alive = Degraded.alive_pes degraded in
    if alive = [] then invalid_arg "Fault_resched.run: every PE is failed";
    (* One kernel over the degraded fabric prices every migration here
       and feeds the repair search and the full rerun below. *)
    let kernel = Kernel.build ~degraded platform ctg in
    let assignment, rank = Rebuild.of_schedule schedule in
    (* Step 1: every task stranded on a failed PE migrates to the
       cheapest alive destination (same ordering as a GTM move). *)
    let migrated = ref 0 in
    Array.iteri
      (fun i pe ->
        if not (Degraded.pe_alive degraded pe) then begin
          let best =
            alive
            |> List.map (fun k -> (Repair.move_energy kernel ~assignment i k, k))
            |> List.sort compare |> List.hd |> snd
          in
          assignment.(i) <- best;
          incr migrated
        end)
      (Array.copy assignment);
    (* Step 2: rebuild on the degraded fabric — surviving placements and
       the execution order are preserved, failed links are detoured. *)
    let rebuilt =
      try Some (Rebuild.run kernel ~assignment ~rank)
      with Invalid_argument _ -> None
    in
    (* Step 3: if deadlines still miss, run the repair search on the
       degraded platform; if that is not enough either, fall back to
       rescheduling from scratch and keep whichever is better. *)
    let repaired =
      match rebuilt with
      | None -> None
      | Some s ->
        if fst (Repair.score ctg s) = 0 then Some (s, None)
        else
          let s', st = Repair.run ~kernel platform ctg s in
          Some (s', Some st)
    in
    match repaired with
    | Some (s, repair) when fst (Repair.score ctg s) = 0 ->
      finish ~original:schedule ~migrated:!migrated ~used_full_rerun:false ~repair s ctg
    | _ ->
      let full = (Eas.schedule ~kernel platform ctg).Eas.schedule in
      (match repaired with
      | Some (s, repair)
        when Repair.improves (Repair.score ctg s) (Repair.score ctg full) ->
        finish ~original:schedule ~migrated:!migrated ~used_full_rerun:false ~repair s
          ctg
      | _ ->
        finish ~original:schedule ~migrated:!migrated ~used_full_rerun:true ~repair:None
          full ctg)
  end

(* ------------------------------------------------------------------ *)
(* Criticality analysis. *)

type criticality = {
  element : Fault.element;
  induced_misses : int;
  induced_losses : int;
}

let criticality ?discipline platform ctg schedule =
  let probe element =
    let fault =
      match element with
      | Fault.Pe i -> Fault.pe i ()
      | Fault.Link l ->
        Fault.link ~from_node:l.Noc_noc.Routing.from_node ~to_node:l.to_node ()
    in
    let outcome =
      Noc_sim.Executor.run ?discipline ~faults:(Fault_set.of_list [ fault ]) platform
        ctg schedule
    in
    {
      element;
      induced_misses = List.length outcome.Noc_sim.Executor.deadline_misses;
      induced_losses = List.length outcome.Noc_sim.Executor.lost_tasks;
    }
  in
  let elements =
    List.init (Noc_noc.Platform.n_pes platform) (fun i -> Fault.Pe i)
    @ List.map (fun l -> Fault.Link l) (Noc_noc.Platform.all_links platform)
  in
  List.map probe elements
  |> List.sort (fun a b ->
         let c = compare (b.induced_misses, b.induced_losses) (a.induced_misses, a.induced_losses) in
         if c <> 0 then c else Fault.compare_element a.element b.element)

let pp_criticality ppf { element; induced_misses; induced_losses } =
  Format.fprintf ppf "%a: %d missed, %d lost" Fault.pp_element element induced_misses
    induced_losses
