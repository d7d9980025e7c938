(* Tests for Noc_fault.Fault and Noc_fault.Fault_set: the CLI text
   syntax, the point-in-time/whole-horizon queries, the seeded sampler
   and the degraded routing views it feeds. *)

module Fault = Noc_fault.Fault
module Fault_set = Noc_fault.Fault_set
module Degraded = Noc_noc.Degraded
module Platform = Noc_noc.Platform
module Routing = Noc_noc.Routing

let platform =
  Platform.make
    ~topology:(Noc_noc.Topology.mesh ~cols:4 ~rows:4)
    ~pes:(Array.init 16 (fun index -> Noc_noc.Pe.of_kind ~index Noc_noc.Pe.Dsp))
    ~link_bandwidth:100. ()

(* {1 Text syntax} *)

let parse_exn s =
  match Fault.of_string s with
  | Ok f -> f
  | Error msg -> Alcotest.failf "of_string %S: %s" s msg

let test_of_string_round_trip () =
  List.iter
    (fun s ->
      let f = parse_exn s in
      Alcotest.(check string) ("round trip " ^ s) s (Fault.to_string f);
      (* to_string must be a canonical inverse: parsing it again yields
         an equal fault. *)
      Alcotest.(check bool) "reparse equal" true
        (Fault.compare f (parse_exn (Fault.to_string f)) = 0))
    [ "pe:5"; "link:1-2"; "pe:2@100:"; "link:3-7@10:20"; "pe:0@:50" ]

let test_of_string_errors () =
  List.iter
    (fun s ->
      match Fault.of_string s with
      | Ok _ -> Alcotest.failf "of_string %S should fail" s
      | Error _ -> ())
    [ ""; "pe:"; "pe:x"; "link:3"; "link:3-"; "cpu:1"; "pe:1@20:10"; "pe:1@5:5" ]

let test_window_semantics () =
  let f = parse_exn "link:3-7@10:20" in
  Alcotest.(check bool) "before onset" false (Fault.active_at f ~time:9.9);
  Alcotest.(check bool) "at onset" true (Fault.active_at f ~time:10.);
  Alcotest.(check bool) "inside" true (Fault.active_at f ~time:19.9);
  (* Half-open window: recovered exactly at until_time. *)
  Alcotest.(check bool) "at recovery" false (Fault.active_at f ~time:20.);
  Alcotest.(check bool) "transient" true (f.Fault.until_time < infinity);
  let p = parse_exn "pe:5" in
  Alcotest.(check bool) "permanent" true (p.Fault.until_time = infinity);
  Alcotest.(check bool) "permanent active late" true
    (Fault.active_at p ~time:1e9)

(* {1 Fault sets} *)

let set_of specs =
  match Fault_set.of_strings specs with
  | Ok s -> s
  | Error msg -> Alcotest.failf "of_strings: %s" msg

let test_set_queries () =
  let s = set_of [ "pe:5"; "link:1-2@50:"; "link:6-7@10:20" ] in
  Alcotest.(check bool) "pe 5 down" true (Fault_set.pe_failed_at s ~pe:5 ~time:0.);
  Alcotest.(check bool) "pe 4 up" false (Fault_set.pe_failed_at s ~pe:4 ~time:0.);
  let l12 = { Routing.from_node = 1; to_node = 2 } in
  Alcotest.(check bool) "link 1-2 up before onset" false
    (Fault_set.link_failed_at s ~link:l12 ~time:49.);
  Alcotest.(check bool) "link 1-2 down after onset" true
    (Fault_set.link_failed_at s ~link:l12 ~time:50.);
  (* Directed: the reverse link stays up. *)
  Alcotest.(check bool) "reverse link up" false
    (Fault_set.link_failed_at s ~link:{ Routing.from_node = 2; to_node = 1 } ~time:60.);
  Alcotest.(check (list int)) "failed pes" [ 5 ] (Fault_set.failed_pes s);
  Alcotest.(check int) "failed links" 2 (List.length (Fault_set.failed_links s));
  Alcotest.(check (list (float 1e-9))) "boundaries" [ 10.; 20.; 50. ]
    (Fault_set.boundaries s)

let test_set_canonical_key () =
  let a = set_of [ "link:1-2"; "pe:5"; "pe:3" ] in
  let b = set_of [ "pe:3"; "pe:5"; "link:1-2"; "pe:5" ] in
  Alcotest.(check string) "order and duplicates do not matter"
    (Fault_set.key a) (Fault_set.key b);
  Alcotest.(check string) "empty key" "" (Fault_set.key Fault_set.empty)

(* {1 Sampler} *)

let test_sampler_deterministic () =
  let sample seed = Fault_set.sample ~seed ~platform ~horizon:1000. () in
  Alcotest.(check string) "same seed, same set"
    (Fault_set.key (sample 42)) (Fault_set.key (sample 42));
  (* Different seeds should differ somewhere among a handful of draws. *)
  let keys = List.init 8 (fun s -> Fault_set.key (sample s)) in
  let distinct = List.sort_uniq String.compare keys in
  Alcotest.(check bool) "seeds vary" true (List.length distinct > 1);
  let s = sample 7 in
  Alcotest.(check int) "one failed pe" 1 (List.length (Fault_set.failed_pes s));
  Alcotest.(check int) "one failed link" 1 (List.length (Fault_set.failed_links s))

let test_sampler_rejects_total_failure () =
  Alcotest.check_raises "cannot fail every PE"
    (Invalid_argument "Fault_set.sample: at least one PE must survive")
    (fun () ->
      ignore (Fault_set.sample ~seed:0 ~platform ~n_pe_faults:16 ()))

(* {1 Degraded routing} *)

let walk_ok topo route =
  let rec ok = function
    | a :: (b :: _ as rest) -> Noc_noc.Topology.are_neighbours topo a b && ok rest
    | [ _ ] | [] -> true
  in
  ok route

let test_degraded_detour () =
  (* Failing 1->2 forces the XY route 0-1-2-3 onto a detour; the detour
     is a valid walk avoiding the failed link, found for every pair. *)
  let view =
    Degraded.make platform ~failed_pes:[]
      ~failed_links:[ { Routing.from_node = 1; to_node = 2 } ]
  in
  let topo = Platform.topology platform in
  for src = 0 to 15 do
    for dst = 0 to 15 do
      let route = Degraded.route view ~src ~dst in
      Alcotest.(check bool) "valid degraded walk" true
        (Degraded.route_valid view route);
      Alcotest.(check bool) "contiguous" true (walk_ok topo route);
      Alcotest.(check int) "starts at src" src (List.hd route);
      Alcotest.(check int) "ends at dst" dst
        (List.nth route (List.length route - 1))
    done
  done;
  let detour = Degraded.route view ~src:0 ~dst:3 in
  Alcotest.(check bool) "detour avoids 1->2" false
    (List.exists
       (fun { Routing.from_node; to_node } -> from_node = 1 && to_node = 2)
       (Degraded.route_links view ~src:0 ~dst:3));
  Alcotest.(check bool) "detour longer than XY" true (List.length detour > 4)

let test_degraded_unreachable () =
  (* Cutting both incoming links of corner PE 0 (1->0 and 4->0)
     disconnects it as a destination. *)
  let view =
    Degraded.make platform ~failed_pes:[]
      ~failed_links:
        [
          { Routing.from_node = 1; to_node = 0 };
          { Routing.from_node = 4; to_node = 0 };
        ]
  in
  Alcotest.(check bool) "unreachable" false (Degraded.reachable view ~src:5 ~dst:0);
  Alcotest.(check bool) "route_opt none" true
    (Degraded.route_opt view ~src:5 ~dst:0 = None);
  Alcotest.check_raises "route raises"
    (Invalid_argument "Degraded.route: no surviving route from 5 to 0")
    (fun () -> ignore (Degraded.route view ~src:5 ~dst:0));
  (* Outgoing links are untouched, so PE 0 can still send. *)
  Alcotest.(check bool) "can still send" true (Degraded.reachable view ~src:0 ~dst:5)

let test_degraded_memoised_view () =
  let s = set_of [ "pe:5"; "link:1-2" ] in
  let a = Fault_set.degraded s platform in
  let b = Fault_set.degraded s platform in
  Alcotest.(check bool) "same view object" true (a == b);
  Alcotest.(check bool) "pe 5 dead" false (Degraded.pe_alive a 5);
  Alcotest.(check int) "15 alive" 15 (List.length (Degraded.alive_pes a));
  (* Repeated route queries hit the memo and stay equal. *)
  Alcotest.(check (list int)) "memoised route stable"
    (Degraded.route a ~src:0 ~dst:3) (Degraded.route a ~src:0 ~dst:3)

(* {1 Checking a set against a platform} *)

let test_check_against_platform () =
  let set specs =
    match Fault_set.of_strings specs with
    | Ok t -> t
    | Error msg -> Alcotest.failf "of_strings: %s" msg
  in
  List.iter
    (fun specs ->
      match Fault_set.check platform (set specs) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s rejected: %s" (String.concat " " specs) msg)
    [ []; [ "pe:0"; "pe:15" ]; [ "link:0-1"; "link:1-0"; "link:5-9@10:20" ] ];
  List.iter
    (fun (specs, named) ->
      match Fault_set.check platform (set specs) with
      | Ok _ -> Alcotest.failf "%s accepted on a 4x4 mesh" (String.concat " " specs)
      | Error msg ->
        Alcotest.(check bool) (named ^ " named in " ^ msg) true
          (String.starts_with ~prefix:(Printf.sprintf "fault %S: " named) msg))
    [
      ([ "pe:3"; "pe:99" ], "pe:99");
      ([ "pe:16" ], "pe:16");
      ([ "link:0-5" ], "link:0-5");
      ([ "link:3-4" ], "link:3-4");
      ([ "link:0-1"; "link:99-98" ], "link:99-98");
    ]

let suite =
  [
    Alcotest.test_case "of_string/to_string round trip" `Quick
      test_of_string_round_trip;
    Alcotest.test_case "of_string rejects malformed specs" `Quick
      test_of_string_errors;
    Alcotest.test_case "half-open fault windows" `Quick test_window_semantics;
    Alcotest.test_case "fault-set queries" `Quick test_set_queries;
    Alcotest.test_case "canonical keys" `Quick test_set_canonical_key;
    Alcotest.test_case "sampler is seed-deterministic" `Quick
      test_sampler_deterministic;
    Alcotest.test_case "sampler keeps a PE alive" `Quick
      test_sampler_rejects_total_failure;
    Alcotest.test_case "degraded detours are valid walks" `Quick
      test_degraded_detour;
    Alcotest.test_case "disconnection is reported" `Quick
      test_degraded_unreachable;
    Alcotest.test_case "degraded views are memoised" `Quick
      test_degraded_memoised_view;
    Alcotest.test_case "check against the platform" `Quick test_check_against_platform;
  ]
