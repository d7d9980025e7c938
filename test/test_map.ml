(* Mapping search: the qcheck differential law pinning the O(incident
   arcs) delta evaluator bit-identical to a from-scratch recompute,
   search determinism across job counts and chain prefixes, the
   identity-energy guarantee of the pure-energy objective, and the
   pinned-EAS contract the survivors rely on. *)

module Objective = Noc_map.Objective
module Search = Noc_map.Search
module Prng = Noc_util.Prng
module Ctg = Noc_ctg.Ctg

let mesh_platform =
  Noc_noc.Platform.heterogeneous ~seed:42 (Noc_noc.Topology.mesh ~cols:4 ~rows:4) ()

let torus_platform =
  Noc_noc.Platform.heterogeneous ~seed:42 (Noc_noc.Topology.torus ~cols:4 ~rows:4) ()

let random_ctg platform ~n_tasks ~seed =
  let params = { Noc_tgff.Params.default with n_tasks } in
  Noc_tgff.Generate.generate ~params ~platform ~seed

let tables ?weights platform ctg =
  Objective.lift ?weights (Noc_eas.Kernel.build platform ctg)

(* The differential law (the mli's advertised contract): after ANY
   sequence of random moves and swaps, the maintained value is
   bit-identical — Int64.bits_of_float, not within epsilon — to
   [full_value] of the current mapping, on meshes and tori and under
   random latency/balance weights. Each step also checks the returned
   delta against the oracle difference (a float subtraction, so only
   approximately). *)
let qcheck_delta_law =
  QCheck.Test.make ~name:"delta eval bit-identical to full recompute" ~count:30
    QCheck.(
      quad (int_range 0 1000) (int_range 10 60) (pair (int_range 0 20) (int_range 0 20))
        bool)
    (fun (seed, n_tasks, (lat10, bal10), on_torus) ->
      let platform = if on_torus then torus_platform else mesh_platform in
      let ctg = random_ctg platform ~n_tasks ~seed in
      let n_pes = Noc_noc.Platform.n_pes platform in
      let t = tables platform ctg in
      let weights =
        {
          Objective.latency = float_of_int lat10 /. 10.;
          balance = float_of_int bal10 /. 10. *. Objective.mean_exec_energy t;
        }
      in
      let t = tables ~weights platform ctg in
      let state = Objective.create t (Search.identity_mapping ~n_tasks ~n_pes) in
      let rng = Prng.create ~seed:(seed + 1) in
      let bits f = Int64.bits_of_float f in
      let steps = 200 in
      let ok = ref true in
      for _ = 1 to steps do
        let before = Objective.value state in
        let delta =
          if Prng.bool rng then begin
            let task = Prng.int rng ~bound:n_tasks in
            let to_ = Prng.int rng ~bound:n_pes in
            let d = Objective.move_delta state ~task ~to_ in
            Objective.apply_move state ~task ~to_;
            d
          end
          else begin
            let a = Prng.int rng ~bound:n_tasks in
            let b = Prng.int rng ~bound:n_tasks in
            let d = Objective.swap_delta state ~a ~b in
            Objective.apply_swap state ~a ~b;
            d
          end
        in
        let after = Objective.value state in
        let oracle = Objective.full_value t (Objective.mapping state) in
        if bits after <> bits oracle then ok := false;
        (* The delta itself only approximates [after - before]: both are
           differences of exact terms, but taken in different orders. *)
        if abs_float (before +. delta -. after) > 1e-6 *. (1. +. abs_float after)
        then ok := false
      done;
      !ok)

(* Tile counts and tile_of stay consistent with the mapping they
   summarise (the balance term depends on them being exact). *)
let qcheck_counts_consistent =
  QCheck.Test.make ~name:"state counts track the mapping" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let n_tasks = 40 in
      let ctg = random_ctg mesh_platform ~n_tasks ~seed in
      let n_pes = Noc_noc.Platform.n_pes mesh_platform in
      let t = tables mesh_platform ctg in
      let state = Objective.create t (Search.identity_mapping ~n_tasks ~n_pes) in
      let rng = Prng.create ~seed in
      for _ = 1 to 100 do
        Objective.apply_move state ~task:(Prng.int rng ~bound:n_tasks)
          ~to_:(Prng.int rng ~bound:n_pes)
      done;
      let m = Objective.mapping state in
      let counts = Array.make n_pes 0 in
      Array.iter (fun k -> counts.(k) <- counts.(k) + 1) m;
      Array.for_all (fun x -> x) (Array.init n_pes (fun k -> Objective.count state k = counts.(k)))
      && Array.for_all (fun x -> x)
           (Array.init n_tasks (fun i -> Objective.tile_of state i = m.(i))))

(* Structural digest of everything a search run computed; float fields
   compare bitwise under (=), which is exactly the determinism the
   search promises. *)
let digest (r : Search.result) =
  ( List.map
      (fun (c : Search.chain_result) ->
        (c.chain, c.value, c.accepted, Array.to_list c.best_mapping))
      r.chain_results,
    List.map
      (fun (c : Search.candidate) ->
        ( Search.origin_name c.origin, c.static_value, c.energy, c.makespan,
          c.misses, c.cert_errors, Array.to_list c.mapping ))
      r.candidates,
    Array.to_list r.winner.mapping )

let small_params = { Search.default_params with iters = 3_000 }

let search_case () =
  let ctg = random_ctg mesh_platform ~n_tasks:60 ~seed:5 in
  (mesh_platform, ctg)

(* The mapping bench's instance: category-III benchmark 1 at scale 0.25
   on the 8x8 mesh, searched with the default parameters. *)
let category_iii_case () =
  let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:8 ~rows:8 () in
  let module Category = Noc_tgff.Category in
  let params = Category.scaled_params Category.Category_iii ~scale:0.25 in
  let seed = Category.seed_of Category.Category_iii 1 in
  (platform, Noc_tgff.Generate.generate ~params ~platform ~seed)

let search_inputs =
  [
    ("60 tasks on 4x4", search_case, small_params);
    ("category III on 8x8", category_iii_case, Search.default_params);
  ]

let test_jobs_invariance () =
  List.iter
    (fun (label, case, params) ->
      let platform, ctg = case () in
      let run jobs = Search.run ~jobs ~params (Noc_eas.Kernel.build platform ctg) in
      let r1 = digest (run 1) in
      Alcotest.(check bool) (label ^ ": jobs 1 = jobs 2") true (r1 = digest (run 2));
      Alcotest.(check bool) (label ^ ": jobs 1 = jobs 4") true (r1 = digest (run 4)))
    search_inputs

let test_chain_prefix () =
  List.iter
    (fun (label, case, params) ->
      let platform, ctg = case () in
      let chains c =
        (Search.run ~jobs:1 ~params:{ params with chains = c }
           (Noc_eas.Kernel.build platform ctg))
          .chain_results
      in
      let narrow = chains 2 and wide = chains 4 in
      let prefix = List.filteri (fun i _ -> i < List.length narrow) wide in
      let digests =
        List.map (fun (c : Search.chain_result) ->
            (c.chain, c.value, c.accepted, Array.to_list c.best_mapping))
      in
      Alcotest.(check bool) (label ^ ": first 2 of 4 chains = 2-chain run") true
        (digests prefix = digests narrow))
    search_inputs

(* Under the pure-energy objective the best static survivor can never
   cost more pinned-EAS energy than the identity mapping: chain 0
   starts from the identity with best-so-far tracking, and the
   objective IS the (schedule-independent) Eq.-3 energy. *)
let test_never_loses_to_identity () =
  let platform, ctg = search_case () in
  let r = Search.run ~jobs:1 ~params:small_params (Noc_eas.Kernel.build platform ctg) in
  let best = List.hd r.candidates in
  let identity =
    List.find (fun (c : Search.candidate) -> c.origin = Search.Identity)
      r.candidates
  in
  Alcotest.(check bool) "best static value <= identity energy" true
    (best.static_value <= identity.energy *. (1. +. 1e-9));
  Alcotest.(check bool) "best survivor energy <= identity energy" true
    (best.energy <= identity.energy *. (1. +. 1e-9));
  (* Energy-only static value = pinned-EAS Eq.-3 total, per candidate. *)
  List.iter
    (fun (c : Search.candidate) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s static value = schedule energy"
           (Search.origin_name c.origin))
        true
        (Noc_util.Stats.fequal ~eps:1e-6 c.static_value c.energy))
    r.candidates

(* The same guarantee on the full big-mesh Pareto sweep (category-III
   benchmark 1 at full size on 8x8 and 16x16): the annealed balance=0
   point never costs more pinned-EAS energy than the identity placement.
   The tiny relative epsilon covers summation order: the two pinned-EAS
   totals are summed in schedule order, the static objective in table
   order. *)
let test_pareto_never_loses_to_identity () =
  let module T = Noc_experiments.Topology_compare in
  let pareto = T.pareto () in
  Alcotest.(check (list (pair int int))) "swept meshes" [ (8, 8); (16, 16) ]
    (List.map (fun (r : T.pareto_row) -> r.mesh) pareto.rows);
  List.iter
    (fun (r : T.pareto_row) ->
      let find label = List.find (fun (p : T.point) -> p.label = label) r.points in
      let identity = find "identity" and sa = find "sa/balance=0" in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d: sa/balance=0 %.1f nJ <= identity %.1f nJ" (fst r.mesh)
           (snd r.mesh) sa.energy identity.energy)
        true
        (sa.energy <= identity.energy *. (1. +. 1e-9)))
    pareto.rows

let test_capacity_respected () =
  let platform, ctg = search_case () in
  let n_pes = Noc_noc.Platform.n_pes platform in
  let cap = 5 in
  let r =
    Search.run ~jobs:1
      ~params:{ small_params with capacity = Some cap }
      (Noc_eas.Kernel.build platform ctg)
  in
  List.iter
    (fun (c : Search.candidate) ->
      match c.origin with
      | Search.Identity -> ()
      | Search.Chain _ ->
        let counts = Array.make n_pes 0 in
        Array.iter (fun k -> counts.(k) <- counts.(k) + 1) c.mapping;
        Alcotest.(check bool) "per-tile count <= capacity" true
          (Array.for_all (fun n -> n <= cap) counts))
    r.candidates

let test_pinned_eas_respects_mapping () =
  let platform, ctg = search_case () in
  let n_tasks = Ctg.n_tasks ctg in
  let n_pes = Noc_noc.Platform.n_pes platform in
  let pinned = Array.init n_tasks (fun i -> (i * 7 + 3) mod n_pes) in
  let s = (Noc_eas.Eas.schedule ~pinned platform ctg).Noc_eas.Eas.schedule in
  for i = 0 to n_tasks - 1 do
    Alcotest.(check int)
      (Printf.sprintf "task %d placed on its pinned PE" i)
      pinned.(i)
      (Noc_sched.Schedule.placement s i).Noc_sched.Schedule.pe
  done;
  let resource_violations =
    Noc_sched.Validate.check platform ctg s
    |> List.filter (function
         | Noc_sched.Validate.Deadline_miss _ -> false
         | _ -> true)
  in
  Alcotest.(check int) "pinned schedule has no resource violations" 0
    (List.length resource_violations)

let test_pinned_rejects_bad_mapping () =
  let platform, ctg = search_case () in
  let n_tasks = Ctg.n_tasks ctg in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Level_sched.run: pinned length <> task count")
    (fun () -> ignore (Noc_eas.Eas.schedule ~pinned:[| 0; 1; 2 |] platform ctg));
  Alcotest.check_raises "EDF refuses a mapping"
    (Invalid_argument "Pipeline.run: EDF does not take a pinned mapping")
    (fun () ->
      ignore
        (Noc_experiments.Pipeline.run platform ctg
           {
             (Noc_experiments.Pipeline.request Noc_experiments.Runner.Edf) with
             pinned = Some (Array.make n_tasks 0);
           }))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_delta_law;
    QCheck_alcotest.to_alcotest qcheck_counts_consistent;
    Alcotest.test_case "search is jobs-invariant" `Quick test_jobs_invariance;
    Alcotest.test_case "chain prefixes reproduce" `Quick test_chain_prefix;
    Alcotest.test_case "never loses to identity" `Quick test_never_loses_to_identity;
    Alcotest.test_case "Pareto sweep never loses to identity" `Slow
      test_pareto_never_loses_to_identity;
    Alcotest.test_case "capacity respected" `Quick test_capacity_respected;
    Alcotest.test_case "pinned EAS respects the mapping" `Quick
      test_pinned_eas_respects_mapping;
    Alcotest.test_case "pinned validation" `Quick test_pinned_rejects_bad_mapping;
  ]
