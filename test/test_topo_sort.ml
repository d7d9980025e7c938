(* Tests for Noc_util.Topo_sort. *)

module Topo_sort = Noc_util.Topo_sort

let succ_of_edges edges v = List.filter_map (fun (a, b) -> if a = v then Some b else None) edges

let test_chain () =
  let succ = succ_of_edges [ (0, 1); (1, 2); (2, 3) ] in
  match Topo_sort.sort ~n:4 ~succ with
  | Ok order -> Alcotest.(check (array int)) "chain order" [| 0; 1; 2; 3 |] order
  | Error _ -> Alcotest.fail "chain must be acyclic"

let test_deterministic_frontier () =
  (* Diamond: 0 -> {1, 2} -> 3. Smallest-index-first gives 0 1 2 3. *)
  let succ = succ_of_edges [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  match Topo_sort.sort ~n:4 ~succ with
  | Ok order -> Alcotest.(check (array int)) "diamond order" [| 0; 1; 2; 3 |] order
  | Error _ -> Alcotest.fail "diamond must be acyclic"

let test_cycle_detected () =
  let succ = succ_of_edges [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  match Topo_sort.sort ~n:4 ~succ with
  | Ok _ -> Alcotest.fail "cycle must be reported"
  | Error members ->
    Alcotest.(check (list int)) "cycle members" [ 0; 1; 2; 3 ] members

let test_empty_graph () =
  match Topo_sort.sort ~n:0 ~succ:(fun _ -> []) with
  | Ok order -> Alcotest.(check int) "empty" 0 (Array.length order)
  | Error _ -> Alcotest.fail "empty graph is acyclic"

let test_is_acyclic () =
  Alcotest.(check bool) "dag" true
    (Result.is_ok (Topo_sort.sort ~n:3 ~succ:(succ_of_edges [ (0, 1); (1, 2) ])));
  Alcotest.(check bool) "self loop" false
    (Result.is_ok (Topo_sort.sort ~n:2 ~succ:(succ_of_edges [ (0, 0) ])))

let test_longest_paths () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3 with weights 1, 2, 3, 4: the longest path to
     3 goes through 2 (1 + 3 + 4 = 8). *)
  let succ = succ_of_edges [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let weight = function 0 -> 1. | 1 -> 2. | 2 -> 3. | 3 -> 4. | _ -> assert false in
  let lengths = Topo_sort.longest_path_lengths ~n:4 ~succ ~weight in
  Alcotest.(check (float 0.)) "source" 1. lengths.(0);
  Alcotest.(check (float 0.)) "via 1" 3. lengths.(1);
  Alcotest.(check (float 0.)) "via 2" 4. lengths.(2);
  Alcotest.(check (float 0.)) "sink" 8. lengths.(3)

(* Random layered DAGs: every edge must go forward in the order. *)
let random_dag_gen =
  QCheck.Gen.(
    small_int >>= fun seed ->
    int_range 2 30 >>= fun n -> return (seed, n))

let qcheck_order_respects_edges =
  QCheck.Test.make ~name:"topological order respects edges" ~count:200
    (QCheck.make random_dag_gen)
    (fun (seed, n) ->
      let rng = Noc_util.Prng.create ~seed in
      let edges = ref [] in
      for v = 1 to n - 1 do
        let n_preds = Noc_util.Prng.int rng ~bound:(Stdlib.min v 3) + 1 in
        for _ = 1 to n_preds do
          let p = Noc_util.Prng.int rng ~bound:v in
          edges := (p, v) :: !edges
        done
      done;
      let succ = succ_of_edges !edges in
      match Topo_sort.sort ~n ~succ with
      | Error _ -> false
      | Ok order ->
        let position = Array.make n 0 in
        Array.iteri (fun i v -> position.(v) <- i) order;
        List.for_all (fun (a, b) -> position.(a) < position.(b)) !edges)

let suite =
  [
    Alcotest.test_case "chain" `Quick test_chain;
    Alcotest.test_case "deterministic frontier" `Quick test_deterministic_frontier;
    Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "is_acyclic" `Quick test_is_acyclic;
    Alcotest.test_case "longest paths" `Quick test_longest_paths;
    QCheck_alcotest.to_alcotest qcheck_order_respects_edges;
  ]
