(* Satellite property tests for the flat-array EAS kernel: every dense
   matrix entry must agree {e exactly} (same float bits, not just to a
   tolerance) with the per-call platform/degraded query or CTG cost it
   precomputes, across topology families and degraded views. *)

module Topology = Noc_noc.Topology
module Routing = Noc_noc.Routing
module Platform = Noc_noc.Platform
module Degraded = Noc_noc.Degraded
module Kernel = Noc_eas.Kernel

let instantiate (kind, (cols, rows)) =
  match kind with
  | 0 -> Topology.mesh ~cols ~rows
  | 1 -> Topology.torus ~cols ~rows
  | _ -> Topology.honeycomb ~cols ~rows

(* Heterogeneous PEs so exec times/energies actually vary per column. *)
let platform_of spec = Platform.heterogeneous ~seed:7 (instantiate spec) ()

let ctg_of platform seed =
  let params =
    { Noc_tgff.Params.default with Noc_tgff.Params.n_tasks = 15 }
  in
  Noc_tgff.Generate.generate ~params ~platform ~seed

let topo_gen =
  QCheck.(pair (pair (int_range 0 2) (pair (int_range 2 4) (int_range 2 4)))
            small_nat)

(* Exact float equality, [nan]-free by construction. *)
let feq a b = a = b

let qcheck_task_matrices_match_ctg =
  QCheck.Test.make ~name:"kernel task matrices = CTG cost model" ~count:25
    topo_gen
    (fun (spec, seed) ->
      let platform = platform_of spec in
      let n_pes = Platform.n_pes platform in
      let ctg = ctg_of platform seed in
      let kernel = Kernel.build platform ctg in
      let ok = ref (Kernel.n_tasks kernel = Noc_ctg.Ctg.n_tasks ctg
                    && Kernel.n_pes kernel = n_pes) in
      for i = 0 to Noc_ctg.Ctg.n_tasks ctg - 1 do
        let task = Noc_ctg.Ctg.task ctg i in
        for k = 0 to n_pes - 1 do
          ok :=
            !ok
            && feq kernel.Kernel.tasks.(i).Noc_ctg.Task.exec_times.(k)
                 task.Noc_ctg.Task.exec_times.(k)
            && feq (Kernel.exec_energy kernel ~task:i ~pe:k)
                 task.Noc_ctg.Task.energies.(k)
        done;
        ok :=
          !ok
          && feq (Kernel.mean_time kernel i) (Noc_ctg.Task.mean_exec_time task)
          && feq (Kernel.weight kernel i) (Noc_ctg.Task.weight task)
          && feq kernel.Kernel.releases.(i)
               (match task.Noc_ctg.Task.release with
               | None -> neg_infinity
               | Some r -> r)
      done;
      !ok)

let qcheck_route_matrices_match_platform =
  QCheck.Test.make ~name:"kernel route matrices = per-call platform queries"
    ~count:25 topo_gen
    (fun (spec, seed) ->
      let platform = platform_of spec in
      let n = Platform.n_pes platform in
      let ctg = ctg_of platform seed in
      let kernel = Kernel.build platform ctg in
      let bits = 100. +. (17. *. float_of_int seed) in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let route = Platform.route platform ~src ~dst in
          ok :=
            !ok
            && Kernel.reachable kernel ~src ~dst
            && Kernel.hops kernel ~src ~dst = Platform.hops platform ~src ~dst
            && feq
                 (Kernel.comm_duration kernel ~src ~dst ~bits)
                 (Platform.comm_duration platform ~src ~dst ~bits)
            && feq
                 (Kernel.comm_duration kernel ~src ~dst ~bits)
                 (Platform.route_duration platform ~route ~bits)
            && feq
                 (Kernel.comm_energy kernel ~src ~dst ~bits)
                 (Platform.comm_energy platform ~src ~dst ~bits)
            && feq
                 (Kernel.comm_energy_inf kernel ~src ~dst ~bits)
                 (Platform.comm_energy platform ~src ~dst ~bits);
          (* Same-tile transfers are free: no route, no charge. *)
          if src = dst then
            ok :=
              !ok
              && feq (Kernel.comm_duration kernel ~src ~dst ~bits) 0.
              && feq (Kernel.comm_energy kernel ~src ~dst ~bits)
                   (Platform.route_energy platform ~route:[ src ] ~bits)
        done
      done;
      !ok)

let qcheck_degraded_matrices_match_view =
  QCheck.Test.make ~name:"degraded kernel matrices = degraded view queries"
    ~count:25 topo_gen
    (fun (spec, seed) ->
      let platform = platform_of spec in
      let n = Platform.n_pes platform in
      (* Fail one PE and one directed link, picked from the seed. *)
      let links = Platform.all_links platform in
      let failed_link = List.nth links (seed mod List.length links) in
      let view =
        Degraded.make platform ~failed_pes:[ seed mod n ]
          ~failed_links:[ failed_link ]
      in
      let ctg = ctg_of platform seed in
      let kernel = Kernel.build ~degraded:view platform ctg in
      let bits = 64. in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          match Degraded.route_opt view ~src ~dst with
          | None ->
            ok :=
              !ok
              && (not (Kernel.reachable kernel ~src ~dst))
              && Kernel.hops kernel ~src ~dst = -1
              && feq (Kernel.comm_energy_inf kernel ~src ~dst ~bits) infinity
              && (match Kernel.comm_duration kernel ~src ~dst ~bits with
                 | exception Invalid_argument _ -> true
                 | _ -> src = dst)
          | Some _ ->
            ok :=
              !ok
              && Kernel.reachable kernel ~src ~dst
              && Kernel.hops kernel ~src ~dst = Degraded.hops view ~src ~dst
              && feq
                   (Kernel.comm_duration kernel ~src ~dst ~bits)
                   (Degraded.comm_duration view ~src ~dst ~bits)
              && feq
                   (Kernel.comm_energy kernel ~src ~dst ~bits)
                   (Degraded.comm_energy view ~src ~dst ~bits)
        done
      done;
      !ok)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_task_matrices_match_ctg;
    QCheck_alcotest.to_alcotest qcheck_route_matrices_match_platform;
    QCheck_alcotest.to_alcotest qcheck_degraded_matrices_match_view;
  ]
