(* Tests for the Communication Task Graph library (Task, Edge, Ctg,
   Builder). *)

module Task = Noc_ctg.Task
module Edge = Noc_ctg.Edge
module Ctg = Noc_ctg.Ctg
module Builder = Noc_ctg.Builder

let mk_task ?deadline id times energies =
  Task.make ~id ~exec_times:(Array.of_list times) ~energies:(Array.of_list energies)
    ?deadline ()

let simple_graph () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3 *)
  let tasks =
    [|
      mk_task 0 [ 1.; 2. ] [ 10.; 5. ];
      mk_task 1 [ 3.; 1. ] [ 6.; 9. ];
      mk_task 2 [ 2.; 2. ] [ 4.; 4. ];
      mk_task ~deadline:100. 3 [ 1.; 1. ] [ 2.; 3. ];
    |]
  in
  let edges =
    [|
      Edge.make ~id:0 ~src:0 ~dst:1 ~volume:100.;
      Edge.make ~id:1 ~src:0 ~dst:2 ~volume:200.;
      Edge.make ~id:2 ~src:1 ~dst:3 ~volume:300.;
      Edge.make ~id:3 ~src:2 ~dst:3 ~volume:0.;
    |]
  in
  Ctg.make_exn ~tasks ~edges

(* ------------------------------------------------------------------ *)
(* Task *)

let test_task_accessors () =
  let t = mk_task 0 [ 1.; 3. ] [ 4.; 8. ] in
  Alcotest.(check int) "n_pes" 2 (Task.n_pes t);
  Alcotest.(check (float 1e-12)) "mean" 2. (Task.mean_exec_time t);
  Alcotest.(check (float 1e-12)) "time variance" 1. (Task.exec_time_variance t);
  Alcotest.(check (float 1e-12)) "weight = product" 4. (Task.weight t)

let expect_invalid f =
  Alcotest.(check bool) "Invalid_argument" true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let test_task_validation () =
  expect_invalid (fun () -> mk_task 0 [] []);
  expect_invalid (fun () -> mk_task 0 [ 1. ] [ 1.; 2. ]);
  expect_invalid (fun () -> mk_task 0 [ 0. ] [ 1. ]);
  expect_invalid (fun () -> mk_task 0 [ 1. ] [ -1. ]);
  expect_invalid (fun () -> mk_task ~deadline:0. 0 [ 1. ] [ 1. ])

let test_task_default_name () =
  let t = mk_task 7 [ 1. ] [ 1. ] in
  Alcotest.(check string) "default name" "t7" t.Task.name

(* ------------------------------------------------------------------ *)
(* Edge *)

let test_edge_validation () =
  expect_invalid (fun () -> Edge.make ~id:0 ~src:1 ~dst:1 ~volume:1.);
  expect_invalid (fun () -> Edge.make ~id:0 ~src:0 ~dst:1 ~volume:(-1.));
  expect_invalid (fun () -> Edge.make ~id:0 ~src:(-1) ~dst:1 ~volume:1.)

(* ------------------------------------------------------------------ *)
(* Ctg *)

let test_graph_accessors () =
  let g = simple_graph () in
  Alcotest.(check int) "tasks" 4 (Ctg.n_tasks g);
  Alcotest.(check int) "edges" 4 (Ctg.n_edges g);
  Alcotest.(check int) "pes" 2 (Ctg.n_pes g);
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ] (Ctg.preds g 3);
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ] (Ctg.succs g 0);
  Alcotest.(check (list int)) "sources" [ 0 ] (Ctg.sources g);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Ctg.sinks g);
  Alcotest.(check (list int)) "deadline tasks" [ 3 ] (Ctg.deadline_tasks g);
  Alcotest.(check (float 1e-9)) "total volume" 600. (Ctg.total_volume g)

let test_topological_order () =
  let g = simple_graph () in
  let order = Ctg.topological_order g in
  let pos = Array.make 4 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  Array.iter
    (fun (e : Edge.t) ->
      Alcotest.(check bool) "edge forward" true (pos.(e.src) < pos.(e.dst)))
    (Ctg.edges g)

let test_cycle_rejected () =
  let tasks = [| mk_task 0 [ 1. ] [ 1. ]; mk_task 1 [ 1. ] [ 1. ] |] in
  let edges =
    [|
      Edge.make ~id:0 ~src:0 ~dst:1 ~volume:1.;
      Edge.make ~id:1 ~src:1 ~dst:0 ~volume:1.;
    |]
  in
  match Ctg.make ~tasks ~edges with
  | Ok _ -> Alcotest.fail "cycle must be rejected"
  | Error msg -> Alcotest.(check bool) "mentions cycle" true
                   (String.length msg > 0)

let test_duplicate_arc_rejected () =
  let tasks = [| mk_task 0 [ 1. ] [ 1. ]; mk_task 1 [ 1. ] [ 1. ] |] in
  let edges =
    [|
      Edge.make ~id:0 ~src:0 ~dst:1 ~volume:1.;
      Edge.make ~id:1 ~src:0 ~dst:1 ~volume:2.;
    |]
  in
  Alcotest.(check bool) "duplicate rejected" true
    (Result.is_error (Ctg.make ~tasks ~edges))

let test_mixed_pe_counts_rejected () =
  let tasks = [| mk_task 0 [ 1. ] [ 1. ]; mk_task 1 [ 1.; 2. ] [ 1.; 2. ] |] in
  Alcotest.(check bool) "PE count mismatch rejected" true
    (Result.is_error (Ctg.make ~tasks ~edges:[||]))

let test_empty_graph_rejected () =
  Alcotest.(check bool) "no tasks rejected" true
    (Result.is_error (Ctg.make ~tasks:[||] ~edges:[||]))

let test_bad_edge_target_rejected () =
  let tasks = [| mk_task 0 [ 1. ] [ 1. ] |] in
  let edges = [| Edge.make ~id:0 ~src:0 ~dst:5 ~volume:1. |] in
  Alcotest.(check bool) "dangling edge rejected" true
    (Result.is_error (Ctg.make ~tasks ~edges))

let test_critical_paths () =
  let g = simple_graph () in
  (* Mean times: 1.5, 2, 2, 1. Longest mean path 0-1-3 or 0-2-3 = 4.5/4.5;
     0-2-3: 1.5 + 2 + 1 = 4.5; 0-1-3 the same. *)
  Alcotest.(check (float 1e-9)) "mean critical path" 4.5 (Ctg.mean_critical_path g);
  (* Min times: 1, 1, 2, 1: path 0-2-3 = 4. *)
  Alcotest.(check (float 1e-9)) "min critical path" 4. (Ctg.min_critical_path g);
  (* Min load: (1 + 1 + 2 + 1) / 2 PEs. *)
  Alcotest.(check (float 1e-9)) "load bound" 2.5 (Ctg.min_load_bound g)

let test_in_out_edges () =
  let g = simple_graph () in
  Alcotest.(check (list int)) "in edges of 3" [ 2; 3 ]
    (List.map (fun (e : Edge.t) -> e.id) (Ctg.in_edges g 3));
  Alcotest.(check (list int)) "out edges of 0" [ 0; 1 ]
    (List.map (fun (e : Edge.t) -> e.id) (Ctg.out_edges g 0))

let test_dot_output () =
  let g = simple_graph () in
  let dot = Format.asprintf "%a" Ctg.pp_dot g in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph")

(* ------------------------------------------------------------------ *)
(* Digest *)

let hex_digest_re c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let test_digest_stability () =
  let d = Ctg.digest (simple_graph ()) in
  Alcotest.(check int) "64-bit FNV as hex" 16 (String.length d);
  Alcotest.(check bool) "lowercase hex" true (String.for_all hex_digest_re d);
  Alcotest.(check string) "deterministic" d (Ctg.digest (simple_graph ()))

(* Task names are display labels: renaming every task leaves the digest
   unchanged. *)
let test_digest_ignores_presentation () =
  let g = simple_graph () in
  let tasks =
    Array.map (fun (t : Task.t) ->
        Task.make ~id:t.Task.id ~name:("renamed_" ^ t.Task.name)
          ~exec_times:t.Task.exec_times ~energies:t.Task.energies
          ?deadline:t.Task.deadline ())
      (Array.init (Ctg.n_tasks g) (Ctg.task g))
  in
  Alcotest.(check string) "task names excluded"
    (Ctg.digest g)
    (Ctg.digest (Ctg.make_exn ~tasks ~edges:(Ctg.edges g)))

let test_digest_sensitivity () =
  let base = simple_graph () in
  let variant ~volume ~deadline ~cost =
    let tasks =
      [|
        mk_task 0 [ 1.; (if cost then 2.5 else 2.) ] [ 10.; 5. ];
        mk_task 1 [ 3.; 1. ] [ 6.; 9. ];
        mk_task 2 [ 2.; 2. ] [ 4.; 4. ];
        mk_task ~deadline:(if deadline then 99. else 100.) 3 [ 1.; 1. ] [ 2.; 3. ];
      |]
    in
    let edges =
      [|
        Edge.make ~id:0 ~src:0 ~dst:1 ~volume:(if volume then 101. else 100.);
        Edge.make ~id:1 ~src:0 ~dst:2 ~volume:200.;
        Edge.make ~id:2 ~src:1 ~dst:3 ~volume:300.;
        Edge.make ~id:3 ~src:2 ~dst:3 ~volume:0.;
      |]
    in
    Ctg.digest (Ctg.make_exn ~tasks ~edges)
  in
  let d = Ctg.digest base in
  Alcotest.(check string) "identity rebuild matches" d
    (variant ~volume:false ~deadline:false ~cost:false);
  Alcotest.(check bool) "volume changes digest" true
    (d <> variant ~volume:true ~deadline:false ~cost:false);
  Alcotest.(check bool) "deadline changes digest" true
    (d <> variant ~volume:false ~deadline:true ~cost:false);
  Alcotest.(check bool) "exec cost changes digest" true
    (d <> variant ~volume:false ~deadline:false ~cost:true);
  (* Edge ids break ties in the communication scheduler, so declaring
     the same arcs in reverse order (ids re-assigned) is another problem. *)
  let edges = Ctg.edges base in
  let n = Array.length edges in
  let reversed =
    Array.init n (fun i ->
        let (e : Edge.t) = edges.(n - 1 - i) in
        Edge.make ~id:i ~src:e.Edge.src ~dst:e.Edge.dst ~volume:e.Edge.volume)
  in
  Alcotest.(check bool) "edge declaration order changes digest" true
    (d <> Ctg.digest (Ctg.make_exn ~tasks:(Ctg.tasks base) ~edges:reversed))

(* ------------------------------------------------------------------ *)
(* Builder *)

let test_builder_roundtrip () =
  let b = Builder.create ~n_pes:2 in
  let a = Builder.add_uniform_task b ~time:1. ~energy:2. () in
  let c = Builder.add_task b ~exec_times:[| 1.; 2. |] ~energies:[| 3.; 4. |] () in
  Builder.connect b ~src:a ~dst:c ~volume:42.;
  let g = Builder.build_exn b in
  Alcotest.(check int) "two tasks" 2 (Ctg.n_tasks g);
  Alcotest.(check int) "one edge" 1 (Ctg.n_edges g);
  Alcotest.(check (float 0.)) "volume kept" 42. (Ctg.edge g 0).Edge.volume

let test_builder_validations () =
  expect_invalid (fun () -> Builder.create ~n_pes:0);
  let b = Builder.create ~n_pes:2 in
  expect_invalid (fun () ->
      Builder.add_task b ~exec_times:[| 1. |] ~energies:[| 1. |] ());
  expect_invalid (fun () -> Builder.connect b ~src:0 ~dst:1 ~volume:1.)

let suite =
  [
    Alcotest.test_case "task accessors" `Quick test_task_accessors;
    Alcotest.test_case "task validation" `Quick test_task_validation;
    Alcotest.test_case "task default name" `Quick test_task_default_name;
    Alcotest.test_case "edge validation" `Quick test_edge_validation;
    Alcotest.test_case "graph accessors" `Quick test_graph_accessors;
    Alcotest.test_case "topological order" `Quick test_topological_order;
    Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
    Alcotest.test_case "duplicate arc rejected" `Quick test_duplicate_arc_rejected;
    Alcotest.test_case "mixed PE counts rejected" `Quick test_mixed_pe_counts_rejected;
    Alcotest.test_case "empty graph rejected" `Quick test_empty_graph_rejected;
    Alcotest.test_case "bad edge target rejected" `Quick test_bad_edge_target_rejected;
    Alcotest.test_case "critical paths" `Quick test_critical_paths;
    Alcotest.test_case "in/out edges" `Quick test_in_out_edges;
    Alcotest.test_case "dot output" `Quick test_dot_output;
    Alcotest.test_case "digest stability" `Quick test_digest_stability;
    Alcotest.test_case "digest ignores presentation" `Quick
      test_digest_ignores_presentation;
    Alcotest.test_case "digest sensitivity" `Quick test_digest_sensitivity;
    Alcotest.test_case "builder roundtrip" `Quick test_builder_roundtrip;
    Alcotest.test_case "builder validations" `Quick test_builder_validations;
  ]
