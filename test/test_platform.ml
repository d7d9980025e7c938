(* Tests for Noc_noc.Platform — the ACG of Definition 2. *)

module Platform = Noc_noc.Platform
module Topology = Noc_noc.Topology
module Pe = Noc_noc.Pe
module Energy_model = Noc_noc.Energy_model

let platform =
  Platform.make
    ~topology:(Topology.mesh ~cols:3 ~rows:3)
    ~pes:(Array.init 9 (fun index -> Pe.of_kind ~index Pe.Dsp))
    ~energy:(Energy_model.make ~e_sbit:1. ~e_lbit:2.)
    ~link_bandwidth:100. ()

let expect_invalid f =
  Alcotest.(check bool) "Invalid_argument" true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let test_construction_checks () =
  expect_invalid (fun () ->
      Platform.make
        ~topology:(Topology.mesh ~cols:2 ~rows:2)
        ~pes:(Array.init 3 (fun index -> Pe.of_kind ~index Pe.Dsp))
        ());
  expect_invalid (fun () ->
      Platform.make
        ~topology:(Topology.mesh ~cols:2 ~rows:2)
        ~pes:(Array.init 4 (fun index -> Pe.of_kind ~index:(index + 1) Pe.Dsp))
        ());
  expect_invalid (fun () ->
      Platform.make
        ~topology:(Topology.mesh ~cols:2 ~rows:2)
        ~pes:(Array.init 4 (fun index -> Pe.of_kind ~index Pe.Dsp))
        ~link_bandwidth:0. ())

let test_bit_energy_matches_eq2 () =
  (* PE 0 to PE 2: distance 2 -> 3 routers, 2 links -> 3*1 + 2*2 = 7 per bit. *)
  Alcotest.(check (float 1e-12)) "eq2 over route" 7.
    (Platform.comm_energy platform ~src:0 ~dst:2 ~bits:1.);
  Alcotest.(check (float 1e-12)) "same tile free" 0.
    (Platform.comm_energy platform ~src:4 ~dst:4 ~bits:1.)

let test_comm_energy () =
  Alcotest.(check (float 1e-9)) "scales with bits" 700.
    (Platform.comm_energy platform ~src:0 ~dst:2 ~bits:100.)

let test_comm_duration () =
  Alcotest.(check (float 1e-12)) "serialisation latency" 2.
    (Platform.comm_duration platform ~src:0 ~dst:2 ~bits:200.);
  Alcotest.(check (float 0.)) "same tile instantaneous" 0.
    (Platform.comm_duration platform ~src:3 ~dst:3 ~bits:200.);
  (* Wormhole: duration independent of distance. *)
  Alcotest.(check (float 1e-12)) "distance independent"
    (Platform.comm_duration platform ~src:0 ~dst:1 ~bits:200.)
    (Platform.comm_duration platform ~src:0 ~dst:8 ~bits:200.)

let test_route_delegation () =
  Alcotest.(check (list int)) "route" [ 0; 1; 2 ] (Platform.route platform ~src:0 ~dst:2);
  Alcotest.(check int) "hops" 3 (Platform.hops platform ~src:0 ~dst:2);
  Alcotest.(check int) "route links" 2
    (List.length (Platform.route_links platform ~src:0 ~dst:2))

let test_heterogeneous_preset_deterministic () =
  let a = Platform.heterogeneous_mesh ~seed:5 ~cols:4 ~rows:4 () in
  let b = Platform.heterogeneous_mesh ~seed:5 ~cols:4 ~rows:4 () in
  for i = 0 to 15 do
    let pa = Platform.pe a i and pb = Platform.pe b i in
    Alcotest.(check (float 0.)) "same time factor" pa.Pe.time_factor pb.Pe.time_factor;
    Alcotest.(check (float 0.)) "same power factor" pa.Pe.power_factor pb.Pe.power_factor
  done;
  let c = Platform.heterogeneous_mesh ~seed:6 ~cols:4 ~rows:4 () in
  let differs = ref false in
  for i = 0 to 15 do
    if (Platform.pe a i).Pe.time_factor <> (Platform.pe c i).Pe.time_factor then
      differs := true
  done;
  Alcotest.(check bool) "different seed differs" true !differs

let test_heterogeneous_preset_mixes_kinds () =
  let p = Platform.heterogeneous_mesh ~cols:4 ~rows:4 () in
  let kinds =
    Array.to_list (Platform.pes p)
    |> List.map (fun pe -> Pe.kind_name pe.Pe.kind)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "all four kinds present" 4 (List.length kinds)

let test_homogeneous_preset () =
  let p = Platform.homogeneous_mesh ~cols:2 ~rows:3 in
  Alcotest.(check int) "6 PEs" 6 (Platform.n_pes p);
  Array.iter
    (fun pe ->
      Alcotest.(check (float 0.)) "unit time" 1. pe.Pe.time_factor;
      Alcotest.(check (float 0.)) "unit power" 1. pe.Pe.power_factor)
    (Platform.pes p)

let test_all_links () =
  Alcotest.(check int) "3x3 mesh directed links" 24
    (List.length (Platform.all_links platform))

let test_digest () =
  let fresh () = Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
  let d = Platform.digest (fresh ()) in
  Alcotest.(check int) "64-bit FNV as hex" 16 (String.length d);
  Alcotest.(check string) "deterministic" d (Platform.digest (fresh ()));
  (* Derived state is excluded: warming the route memo is invisible. *)
  let warmed = fresh () in
  Platform.warm_routes warmed;
  Alcotest.(check string) "route memo excluded" d (Platform.digest warmed);
  (* Content is not: another seed, bandwidth or energy model differs. *)
  Alcotest.(check bool) "seed changes digest" true
    (d <> Platform.digest (Platform.heterogeneous_mesh ~seed:43 ~cols:4 ~rows:4 ()));
  Alcotest.(check bool) "shape changes digest" true
    (d <> Platform.digest (Platform.heterogeneous_mesh ~seed:42 ~cols:2 ~rows:8 ()));
  let tweaked ~bandwidth ~e_lbit =
    Platform.make
      ~topology:(Topology.mesh ~cols:3 ~rows:3)
      ~pes:(Array.init 9 (fun index -> Pe.of_kind ~index Pe.Dsp))
      ~energy:(Energy_model.make ~e_sbit:1. ~e_lbit)
      ~link_bandwidth:bandwidth ()
  in
  let base = Platform.digest (tweaked ~bandwidth:100. ~e_lbit:2.) in
  Alcotest.(check string) "base platform digest matches module-level twin" base
    (Platform.digest platform);
  Alcotest.(check bool) "bandwidth changes digest" true
    (base <> Platform.digest (tweaked ~bandwidth:200. ~e_lbit:2.));
  Alcotest.(check bool) "bit-energy model changes digest" true
    (base <> Platform.digest (tweaked ~bandwidth:100. ~e_lbit:2.5))

let test_digest_covers_routing () =
  (* The routing function changes which schedules are valid (adaptive
     detours, QoS splitting), so it must separate serve-cache keys: the
     same mesh under XY and under an adaptive model may not collide. *)
  let with_routing routing =
    Platform.digest
      (Platform.heterogeneous_mesh ~seed:42 ~routing ~cols:4 ~rows:4 ())
  in
  let xy = with_routing Noc_noc.Turn_model.Xy in
  Alcotest.(check string) "explicit XY is the default" xy
    (Platform.digest (Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 ()));
  let odd_even = with_routing Noc_noc.Turn_model.Odd_even in
  let west_first = with_routing Noc_noc.Turn_model.West_first in
  Alcotest.(check bool) "odd-even differs from xy" true (odd_even <> xy);
  Alcotest.(check bool) "west-first differs from xy" true (west_first <> xy);
  Alcotest.(check bool) "the adaptive models differ" true (west_first <> odd_even)

let suite =
  [
    Alcotest.test_case "construction checks" `Quick test_construction_checks;
    Alcotest.test_case "bit energy matches Eq. 2" `Quick test_bit_energy_matches_eq2;
    Alcotest.test_case "comm energy" `Quick test_comm_energy;
    Alcotest.test_case "comm duration" `Quick test_comm_duration;
    Alcotest.test_case "route delegation" `Quick test_route_delegation;
    Alcotest.test_case "preset deterministic" `Quick test_heterogeneous_preset_deterministic;
    Alcotest.test_case "preset mixes kinds" `Quick test_heterogeneous_preset_mixes_kinds;
    Alcotest.test_case "homogeneous preset" `Quick test_homogeneous_preset;
    Alcotest.test_case "all links" `Quick test_all_links;
    Alcotest.test_case "digest" `Quick test_digest;
    Alcotest.test_case "digest covers the routing function" `Quick
      test_digest_covers_routing;
  ]
