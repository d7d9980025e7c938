(* Satellite property tests: the memoized route tables (Platform's
   per-platform table and Degraded's per-view table) always agree with
   fresh routing computations, across every topology family. *)

module Topology = Noc_noc.Topology
module Routing = Noc_noc.Routing
module Platform = Noc_noc.Platform
module Degraded = Noc_noc.Degraded

let platform_of ?routing topo n =
  Platform.make ~topology:topo
    ~pes:(Array.init n (fun index -> Noc_noc.Pe.of_kind ~index Noc_noc.Pe.Dsp))
    ~link_bandwidth:100. ?routing ()

(* (cols, rows) in [2, 5] x [2, 5] picks a topology instance; honeycomb
   sizes its own node count. *)
let topo_gen =
  QCheck.(triple (int_range 0 2) (int_range 2 5) (int_range 2 5))

let instantiate (kind, cols, rows) =
  match kind with
  | 0 -> ("mesh", Topology.mesh ~cols ~rows)
  | 1 -> ("torus", Topology.torus ~cols ~rows)
  | _ -> ("honeycomb", Topology.honeycomb ~cols ~rows)

let qcheck_platform_memo_matches_fresh =
  QCheck.Test.make ~name:"Platform.route memo = fresh Routing.route" ~count:30
    topo_gen
    (fun spec ->
      let _, topo = instantiate spec in
      let n = Topology.n_nodes topo in
      let platform = platform_of topo n in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          (* Query twice: the second call must hit the memo table and
             still equal the fresh computation. *)
          let first = Platform.route platform ~src ~dst in
          let memo = Platform.route platform ~src ~dst in
          let fresh = Routing.route topo ~src ~dst in
          ok :=
            !ok && first = fresh && memo = fresh
            && Platform.route_links platform ~src ~dst
               = Routing.links topo ~src ~dst
            && Platform.hops platform ~src ~dst = Routing.hops topo ~src ~dst
        done
      done;
      !ok)

(* A trivial view must return the platform's routes, links and hops for
   every pair, under XY on every topology family and under the adaptive
   turn models on meshes: schedulers take a view's routes without first
   asking whether it is trivial. *)
let qcheck_trivial_degraded_matches_platform =
  QCheck.Test.make
    ~name:"trivial Degraded view mirrors the platform's routes" ~count:30
    QCheck.(pair topo_gen (int_range 0 2))
    (fun (((kind, _, _) as spec), pick) ->
      let _, topo = instantiate spec in
      let n = Topology.n_nodes topo in
      let routing =
        (* The adaptive turn models are mesh-only. *)
        if kind = 0 then [| Noc_noc.Turn_model.Xy; West_first; Odd_even |].(pick)
        else Noc_noc.Turn_model.Xy
      in
      let platform = platform_of ~routing topo n in
      let view = Degraded.make platform ~failed_pes:[] ~failed_links:[] in
      let ok = ref (Degraded.is_trivial view) in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          ok :=
            !ok
            && Degraded.route view ~src ~dst = Platform.route platform ~src ~dst
            && Degraded.route_links view ~src ~dst = Platform.route_links platform ~src ~dst
            && Degraded.hops view ~src ~dst = Platform.hops platform ~src ~dst
        done
      done;
      !ok)

let qcheck_degraded_memo_consistent =
  (* Fail one random directed link; every surviving pair must get a
     stable (memoized) valid walk avoiding it, with hops consistent
     with the route's length. Different views may route differently,
     but each view must be internally consistent. *)
  QCheck.Test.make ~name:"Degraded route memo is stable and valid" ~count:30
    QCheck.(pair topo_gen (int_range 0 10_000))
    (fun (spec, link_pick) ->
      let _, topo = instantiate spec in
      let n = Topology.n_nodes topo in
      let platform = platform_of topo n in
      let links = Routing.all_links topo in
      let failed = List.nth links (link_pick mod List.length links) in
      let view = Degraded.make platform ~failed_pes:[] ~failed_links:[ failed ] in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          match Degraded.route_opt view ~src ~dst with
          | None -> ok := !ok && not (Degraded.reachable view ~src ~dst)
          | Some route ->
            let again = Degraded.route view ~src ~dst in
            ok :=
              !ok && route = again
              && Degraded.route_valid view route
              && List.hd route = src
              && List.nth route (List.length route - 1) = dst
              && Degraded.hops view ~src ~dst = Platform.route_hops route
              && not
                   (List.exists
                      (fun l -> Routing.link_equal l failed)
                      (Degraded.route_links view ~src ~dst))
        done
      done;
      !ok)

let qcheck_fault_keyed_views_independent =
  (* Two different fault sets over the same platform give independent
     views: each avoids its own failed link even after the other has
     filled its memo tables. *)
  QCheck.Test.make ~name:"fault-keyed views do not share memo state" ~count:20
    QCheck.(triple (int_range 2 5) (int_range 2 5) (int_range 0 10_000))
    (fun (cols, rows, pick) ->
      let topo = Topology.mesh ~cols ~rows in
      let n = Topology.n_nodes topo in
      let platform = platform_of topo n in
      let links = Routing.all_links topo in
      let la = List.nth links (pick mod List.length links) in
      let lb = List.nth links ((pick + 1) mod List.length links) in
      let va = Degraded.make platform ~failed_pes:[] ~failed_links:[ la ] in
      let vb = Degraded.make platform ~failed_pes:[] ~failed_links:[ lb ] in
      let avoids view failed =
        let ok = ref true in
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            match Degraded.route_opt view ~src ~dst with
            | None -> ()
            | Some _ ->
              ok :=
                !ok
                && not
                     (List.exists
                        (fun l -> Routing.link_equal l failed)
                        (Degraded.route_links view ~src ~dst))
          done
        done;
        !ok
      in
      (* Interleave: fill A's tables, then B's, then re-check A. *)
      avoids va la && avoids vb lb && avoids va la)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_platform_memo_matches_fresh;
    QCheck_alcotest.to_alcotest qcheck_trivial_degraded_matches_platform;
    QCheck_alcotest.to_alcotest qcheck_degraded_memo_consistent;
    QCheck_alcotest.to_alcotest qcheck_fault_keyed_views_independent;
  ]
