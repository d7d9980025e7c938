(* Routes are deterministic per (topology, src, dst), and the scheduler's
   tentative-placement loop asks for the same pairs thousands of times, so
   each platform memoises its n^2 route table (filled on demand). *)
type route_info = { nodes : int list; links : Routing.link list; n_hops : int }

type t = {
  topology : Topology.t;
  pes : Pe.t array;
  energy : Energy_model.t;
  link_bandwidth : float;
  router_latency : float;
  routing : Turn_model.t;
  route_cache : route_info option array; (* indexed by src * n + dst *)
}

let make ~topology ~pes ?(energy = Energy_model.default) ?(link_bandwidth = 3200.)
    ?(router_latency = 0.) ?(routing = Turn_model.Xy) () =
  if Array.length pes <> Topology.n_nodes topology then
    invalid_arg "Platform.make: one PE per tile required";
  Array.iteri
    (fun i pe ->
      if pe.Pe.index <> i then invalid_arg "Platform.make: PE index mismatch")
    pes;
  if not (link_bandwidth > 0.) then
    invalid_arg "Platform.make: bandwidth must be positive";
  if not (router_latency >= 0.) then
    invalid_arg "Platform.make: router latency must be non-negative";
  if Turn_model.is_adaptive routing && not (Turn_model.supports routing topology) then
    invalid_arg
      (Printf.sprintf "Platform.make: %s routing is defined on meshes only"
         (Turn_model.name routing));
  let n = Array.length pes in
  {
    topology;
    pes;
    energy;
    link_bandwidth;
    router_latency;
    routing;
    route_cache = Array.make (n * n) None;
  }

let topology t = t.topology
let routing t = t.routing
let energy_model t = t.energy
let n_pes t = Array.length t.pes
let pe t i = t.pes.(i)
let pes t = t.pes
let link_bandwidth t = t.link_bandwidth
let router_latency t = t.router_latency
let c_memo_hits = Noc_obs.Counters.counter "noc.route_memo.hits"
let c_memo_misses = Noc_obs.Counters.counter "noc.route_memo.misses"

let route_info t ~src ~dst =
  let idx = (src * Array.length t.pes) + dst in
  match t.route_cache.(idx) with
  | Some info ->
    Noc_obs.Counters.incr c_memo_hits;
    info
  | None ->
    Noc_obs.Counters.incr c_memo_misses;
    (* XY keeps the original deterministic router (which also covers
       honeycombs by BFS); adaptive models take the canonical smallest-
       index route out of their admissible relation. *)
    let nodes =
      match t.routing with
      | Turn_model.Xy -> Routing.route t.topology ~src ~dst
      | (Turn_model.West_first | Turn_model.Odd_even) as m ->
        Turn_model.route m t.topology ~src ~dst
    in
    let info =
      {
        nodes;
        links = Routing.links_of_route nodes;
        n_hops = Routing.hops t.topology ~src ~dst;
      }
    in
    t.route_cache.(idx) <- Some info;
    info

(* The lazy fill above is single-domain machinery: concurrent fills
   would race on the cache array. Campaigns that fan a shared platform
   out over a domain pool call this first so the workers only read. *)
let warm_routes t =
  let n = Array.length t.pes in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      ignore (route_info t ~src ~dst)
    done
  done

(* Canonical serialization for the content digest: everything that
   influences routes, durations or energies — topology, the routing
   function, the PE descriptors, the bit-energy model, bandwidth and
   router latency. Hex floats keep it exact; the route memo is derived
   state and does not participate, so a warmed and a cold platform
   digest equally. v2 added the routing line so schedules cannot alias
   across routing disciplines in the serve cache. *)
let digest t =
  let buf = Buffer.create 256 in
  let topo_line =
    match t.topology with
    | Topology.Mesh { cols; rows } -> Printf.sprintf "mesh %d %d" cols rows
    | Topology.Torus { cols; rows } -> Printf.sprintf "torus %d %d" cols rows
    | Topology.Honeycomb { cols; rows } -> Printf.sprintf "honeycomb %d %d" cols rows
  in
  let add = Buffer.add_string buf in
  let add_hex v =
    Buffer.add_char buf ' ';
    Noc_util.Scan.add_hex_float buf v
  in
  add (Printf.sprintf "platform-digest/v2 %s\n" topo_line);
  add (Printf.sprintf "routing %s\n" (Turn_model.name t.routing));
  add "energy";
  add_hex t.energy.Energy_model.e_sbit;
  add_hex t.energy.Energy_model.e_lbit;
  add " bandwidth";
  add_hex t.link_bandwidth;
  add " latency";
  add_hex t.router_latency;
  Buffer.add_char buf '\n';
  Array.iter
    (fun (pe : Pe.t) ->
      add (Printf.sprintf "pe %d %s" pe.Pe.index (Pe.kind_name pe.Pe.kind));
      add_hex pe.Pe.time_factor;
      add_hex pe.Pe.power_factor;
      Buffer.add_char buf '\n')
    t.pes;
  Noc_util.Fnv.digest (Buffer.contents buf)

let route t ~src ~dst = (route_info t ~src ~dst).nodes
let route_links t ~src ~dst = (route_info t ~src ~dst).links
let hops t ~src ~dst = (route_info t ~src ~dst).n_hops

let comm_energy t ~src ~dst ~bits =
  Energy_model.transfer_energy t.energy ~n_hops:(hops t ~src ~dst) ~bits

let comm_duration t ~src ~dst ~bits =
  assert (bits >= 0.);
  if src = dst then 0.
  else
    (* Serialisation latency plus the wormhole head's pipeline delay
       through the intermediate routers. *)
    (bits /. t.link_bandwidth)
    +. (float_of_int (hops t ~src ~dst - 1) *. t.router_latency)

(* Duration and energy of a transaction over an explicit route, used for
   detour routes on degraded platforms. A route of [h] nodes has the
   same cost as a deterministic route with [h] hops, so for the
   platform's own routes these agree with [comm_duration] and
   [comm_energy] exactly. *)
let route_hops nodes = match nodes with [] | [ _ ] -> 0 | _ :: _ -> List.length nodes

let route_duration t ~route ~bits =
  assert (bits >= 0.);
  match route_hops route with
  | 0 -> 0.
  | h -> (bits /. t.link_bandwidth) +. (float_of_int (h - 1) *. t.router_latency)

let route_energy t ~route ~bits =
  Energy_model.transfer_energy t.energy ~n_hops:(route_hops route) ~bits

let all_links t = Routing.all_links t.topology

let heterogeneous ?(seed = 0) ?routing topology () =
  let rng = Noc_util.Prng.create ~seed:(seed lxor 0x6e6f63) in
  let pes =
    Array.init (Topology.n_nodes topology) (fun i ->
        let kind = Pe.all_kinds.(i mod Array.length Pe.all_kinds) in
        let tf, pf = Pe.default_factors kind in
        let jitter () = Noc_util.Prng.float_in rng ~min:0.9 ~max:1.1 in
        Pe.make ~index:i ~kind ~time_factor:(tf *. jitter ())
          ~power_factor:(pf *. jitter ()))
  in
  make ~topology ~pes ?routing ()

let heterogeneous_mesh ?seed ?routing ~cols ~rows () =
  heterogeneous ?seed ?routing (Topology.mesh ~cols ~rows) ()

let homogeneous_mesh ~cols ~rows =
  let topology = Topology.mesh ~cols ~rows in
  let pes =
    Array.init (cols * rows) (fun i ->
        Pe.make ~index:i ~kind:Pe.Dsp ~time_factor:1. ~power_factor:1.)
  in
  make ~topology ~pes ()

let pp ppf t =
  match t.routing with
  | Turn_model.Xy ->
    Format.fprintf ppf "platform(%a, %d PEs, bw=%g)" Topology.pp t.topology
      (n_pes t) t.link_bandwidth
  | m ->
    Format.fprintf ppf "platform(%a, %a routing, %d PEs, bw=%g)" Topology.pp
      t.topology Turn_model.pp m (n_pes t) t.link_bandwidth
