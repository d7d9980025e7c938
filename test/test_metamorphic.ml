(* Metamorphic properties of the whole scheduling pipeline: known input
   transformations with predictable output transformations. These catch
   cross-module inconsistencies that unit tests on single modules miss. *)

module Ctg = Noc_ctg.Ctg
module Task = Noc_ctg.Task
module Edge = Noc_ctg.Edge
module Metrics = Noc_sched.Metrics

let platform = Noc_tgff.Category.platform

let random_ctg ?(n_tasks = 40) seed =
  let params = { Noc_tgff.Params.default with n_tasks } in
  Noc_tgff.Generate.generate ~params ~platform ~seed

let eas ctg = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule
let energy ctg s = (Metrics.compute platform ctg s).Metrics.total_energy

(* Scaling every edge volume by [c] scales communication energy of the
   SAME assignment by exactly [c]. *)
let qcheck_volume_scaling =
  QCheck.Test.make ~name:"volume scaling scales comm energy linearly" ~count:20
    QCheck.(pair (int_range 0 500) (int_range 2 5))
    (fun (seed, c) ->
      let ctg = random_ctg seed in
      let s = eas ctg in
      let pe_of i = (Noc_sched.Schedule.placement s i).Noc_sched.Schedule.pe in
      let scaled_tasks = Ctg.tasks ctg in
      let scaled_edges =
        Array.map
          (fun (e : Edge.t) ->
            Edge.make ~id:e.id ~src:e.src ~dst:e.dst
              ~volume:(float_of_int c *. e.volume))
          (Ctg.edges ctg)
      in
      let scaled = Ctg.make_exn ~tasks:scaled_tasks ~edges:scaled_edges in
      let base_comm =
        (Metrics.compute platform ctg s).Metrics.communication_energy
      in
      let scaled_comm =
        Metrics.energy_of_assignment platform scaled pe_of
        -. (Metrics.compute platform ctg s).Metrics.computation_energy
      in
      Noc_util.Stats.fequal ~eps:1e-6 scaled_comm (float_of_int c *. base_comm))

(* Removing every deadline can only reduce (or keep) EAS energy: the
   scheduler gains freedom. *)
let qcheck_relaxing_deadlines_helps =
  QCheck.Test.make ~name:"removing deadlines never increases EAS energy" ~count:15
    QCheck.(int_range 0 500)
    (fun seed ->
      let ctg = random_ctg seed in
      let relaxed_tasks =
        Array.map
          (fun (t : Task.t) ->
            Task.make ~id:t.id ~name:t.name ~exec_times:t.exec_times
              ~energies:t.energies ?release:t.release ())
          (Ctg.tasks ctg)
      in
      let relaxed = Ctg.make_exn ~tasks:relaxed_tasks ~edges:(Ctg.edges ctg) in
      energy relaxed (eas relaxed) <= energy ctg (eas ctg) +. 1e-6)

(* Scaling the whole time axis (all exec times, releases, deadlines, and
   the bandwidth inversely... simpler: exec times and deadlines by c with
   volumes fixed and bandwidth scaled) leaves the assignment decisions
   invariant, so energy is unchanged. We scale times, releases, deadlines
   by c and bandwidth by 1/c so transaction durations scale too. *)
let qcheck_time_scaling_invariance =
  QCheck.Test.make ~name:"uniform time scaling preserves the schedule shape"
    ~count:10
    QCheck.(int_range 0 500)
    (fun seed ->
      let c = 3. in
      let ctg = random_ctg seed in
      let scaled_tasks =
        Array.map
          (fun (t : Task.t) ->
            Task.make ~id:t.id ~name:t.name
              ~exec_times:(Array.map (fun r -> c *. r) t.exec_times)
              ~energies:t.energies
              ?release:(Option.map (fun r -> c *. r) t.release)
              ?deadline:(Option.map (fun d -> c *. d) t.deadline)
              ())
          (Ctg.tasks ctg)
      in
      let scaled_ctg = Ctg.make_exn ~tasks:scaled_tasks ~edges:(Ctg.edges ctg) in
      let scaled_platform =
        Noc_noc.Platform.make
          ~topology:(Noc_noc.Platform.topology platform)
          ~pes:(Noc_noc.Platform.pes platform)
          ~energy:(Noc_noc.Platform.energy_model platform)
          ~link_bandwidth:(Noc_noc.Platform.link_bandwidth platform /. c)
          ()
      in
      let s = eas ctg in
      let s' = (Noc_eas.Eas.schedule scaled_platform scaled_ctg).Noc_eas.Eas.schedule in
      (* Same assignment on every task... *)
      let same_assignment =
        Array.for_all2
          (fun (a : Noc_sched.Schedule.placement) (b : Noc_sched.Schedule.placement) ->
            a.pe = b.pe)
          (Noc_sched.Schedule.placements s)
          (Noc_sched.Schedule.placements s')
      in
      (* ...and start times scaled by c. *)
      let scaled_times =
        Array.for_all2
          (fun (a : Noc_sched.Schedule.placement) (b : Noc_sched.Schedule.placement) ->
            Noc_util.Stats.fequal ~eps:1e-6 (c *. a.start) b.start)
          (Noc_sched.Schedule.placements s)
          (Noc_sched.Schedule.placements s')
      in
      same_assignment && scaled_times)

(* A graph restricted to a single PE type (homogeneous platform) makes
   EAS, EDF and DLS agree on energy: with identical costs everywhere,
   energy depends only on communication, and clustering is the only
   lever. At minimum, all schedulers' computation energy must agree. *)
let qcheck_homogeneous_computation_energy =
  QCheck.Test.make ~name:"homogeneous platform: computation energy is scheduler-independent"
    ~count:10
    QCheck.(int_range 0 500)
    (fun seed ->
      let p = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:2 in
      (* Zero jitter: the homogeneous platform then gives every task
         identical per-PE costs. *)
      let params =
        {
          Noc_tgff.Params.default with
          n_tasks = 30;
          time_jitter_sigma = 0.;
          energy_jitter_sigma = 0.;
        }
      in
      let ctg = Noc_tgff.Generate.generate ~params ~platform:p ~seed in
      let comp s = (Metrics.compute p ctg s).Metrics.computation_energy in
      let e = comp (Noc_eas.Eas.schedule p ctg).Noc_eas.Eas.schedule in
      let d = comp (Noc_edf.Edf.schedule p ctg) in
      let l = comp (Noc_baselines.Dls.schedule p ctg) in
      Noc_util.Stats.fequal ~eps:1e-6 e d && Noc_util.Stats.fequal ~eps:1e-6 d l)

(* Unrolling one copy is the identity (modulo names). *)
let qcheck_unroll_identity =
  QCheck.Test.make ~name:"unrolling one copy preserves the graph" ~count:15
    QCheck.(int_range 0 500)
    (fun seed ->
      let ctg = random_ctg seed in
      let u = Noc_ctg.Unroll.periodic ctg ~period:1e9 ~copies:1 in
      Ctg.n_tasks u = Ctg.n_tasks ctg
      && Ctg.n_edges u = Ctg.n_edges ctg
      && Array.for_all2
           (fun (a : Task.t) (b : Task.t) ->
             a.exec_times = b.exec_times && a.deadline = b.deadline
             && a.release = b.release)
           (Ctg.tasks ctg) (Ctg.tasks u))

(* Serialisation is the identity on scheduling decisions: a graph sent
   through text and back schedules identically. *)
let qcheck_serialisation_schedule_identity =
  QCheck.Test.make ~name:"text roundtrip preserves the schedule" ~count:10
    QCheck.(int_range 0 500)
    (fun seed ->
      let ctg = random_ctg seed in
      match Noc_ctg.Ctg_io.of_string (Noc_ctg.Ctg_io.to_string ctg) with
      | Error _ -> false
      | Ok ctg' ->
        let a = eas ctg and b = eas ctg' in
        Noc_sched.Schedule.placements a = Noc_sched.Schedule.placements b)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_volume_scaling;
    QCheck_alcotest.to_alcotest qcheck_relaxing_deadlines_helps;
    QCheck_alcotest.to_alcotest qcheck_time_scaling_invariance;
    QCheck_alcotest.to_alcotest qcheck_homogeneous_computation_energy;
    QCheck_alcotest.to_alcotest qcheck_unroll_identity;
    QCheck_alcotest.to_alcotest qcheck_serialisation_schedule_identity;
  ]
