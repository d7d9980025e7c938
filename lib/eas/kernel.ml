module Timeline = Noc_util.Timeline
module Resource_state = Noc_sched.Resource_state
module Comm_sched = Noc_sched.Comm_sched

(* Flat dense matrices, indexed [task * n_pes + pe] and [src * n_pes + dst].
   Every float stored here is produced by exactly the expression the
   probing path would have evaluated (same operands, same operation
   order), so consulting the kernel instead of the platform is invisible
   at the bit level — the contract the differential suite pins. *)
type t = {
  n_tasks : int;
  n_pes : int;
  exec_times : float array;  (* task * n_pes + pe *)
  exec_energies : float array;  (* task * n_pes + pe *)
  releases : float array;  (* per task; [neg_infinity] when unconstrained *)
  mean_times : float array;  (* per task *)
  weights : float array;  (* per task: VAR_e * VAR_r *)
  hops : int array;  (* src * n_pes + dst; -1 when the pair is disconnected *)
  ebits : float array;  (* bit energy over the route; meaningless when hops < 0 *)
  links : Noc_noc.Routing.link array array;  (* src * n_pes + dst -> route links *)
  link_bandwidth : float;
  router_latency : float;
}

let n_tasks t = t.n_tasks
let n_pes t = t.n_pes

let build ?degraded platform ctg =
  let n_pes = Noc_noc.Platform.n_pes platform in
  let n_tasks = Noc_ctg.Ctg.n_tasks ctg in
  let energy = Noc_noc.Platform.energy_model platform in
  let exec_times = Array.make (n_tasks * n_pes) 0. in
  let exec_energies = Array.make (n_tasks * n_pes) 0. in
  let releases = Array.make n_tasks neg_infinity in
  let mean_times = Array.make n_tasks 0. in
  let weights = Array.make n_tasks 0. in
  for i = 0 to n_tasks - 1 do
    let task = Noc_ctg.Ctg.task ctg i in
    Array.blit task.Noc_ctg.Task.exec_times 0 exec_times (i * n_pes) n_pes;
    Array.blit task.Noc_ctg.Task.energies 0 exec_energies (i * n_pes) n_pes;
    (match task.Noc_ctg.Task.release with
    | None -> ()
    | Some release -> releases.(i) <- release);
    mean_times.(i) <- Noc_ctg.Task.mean_exec_time task;
    weights.(i) <- Noc_ctg.Task.weight task
  done;
  let hops = Array.make (n_pes * n_pes) (-1) in
  let ebits = Array.make (n_pes * n_pes) 0. in
  let links = Array.make (n_pes * n_pes) [||] in
  let nontrivial =
    match degraded with
    | Some view when not (Noc_noc.Degraded.is_trivial view) -> Some view
    | Some _ | None -> None
  in
  for src = 0 to n_pes - 1 do
    for dst = 0 to n_pes - 1 do
      let idx = (src * n_pes) + dst in
      match nontrivial with
      | Some view -> (
        match Noc_noc.Degraded.route_opt view ~src ~dst with
        | None -> ()  (* hops stays -1: disconnected *)
        | Some route ->
          let h = Noc_noc.Platform.route_hops route in
          hops.(idx) <- h;
          ebits.(idx) <- Noc_noc.Energy_model.bit_energy energy ~n_hops:h;
          links.(idx) <-
            Array.of_list (Noc_noc.Degraded.route_links view ~src ~dst))
      | None ->
        let h = Noc_noc.Platform.hops platform ~src ~dst in
        hops.(idx) <- h;
        ebits.(idx) <- Noc_noc.Energy_model.bit_energy energy ~n_hops:h;
        links.(idx) <-
          Array.of_list (Noc_noc.Platform.route_links platform ~src ~dst)
    done
  done;
  {
    n_tasks;
    n_pes;
    exec_times;
    exec_energies;
    releases;
    mean_times;
    weights;
    hops;
    ebits;
    links;
    link_bandwidth = Noc_noc.Platform.link_bandwidth platform;
    router_latency = Noc_noc.Platform.router_latency platform;
  }

let exec_time t ~task ~pe = t.exec_times.((task * t.n_pes) + pe)
let exec_energy t ~task ~pe = t.exec_energies.((task * t.n_pes) + pe)
let mean_time t task = t.mean_times.(task)
let weight t task = t.weights.(task)
let release t task = t.releases.(task)
let hops t ~src ~dst = t.hops.((src * t.n_pes) + dst)
let reachable t ~src ~dst = t.hops.((src * t.n_pes) + dst) >= 0

let comm_duration t ~src ~dst ~bits =
  if src = dst then 0.
  else begin
    let h = t.hops.((src * t.n_pes) + dst) in
    if h < 0 then
      invalid_arg
        (Printf.sprintf "Kernel.comm_duration: no surviving route from %d to %d"
           src dst);
    (bits /. t.link_bandwidth) +. (float_of_int (h - 1) *. t.router_latency)
  end

let comm_energy t ~src ~dst ~bits =
  let idx = (src * t.n_pes) + dst in
  if t.hops.(idx) < 0 then
    invalid_arg
      (Printf.sprintf "Kernel.comm_energy: no surviving route from %d to %d" src
         dst);
  bits *. t.ebits.(idx)

(* [infinity] for a disconnected pair — never [bits *. infinity], which
   would be NaN for a zero-volume arc. *)
let comm_energy_inf t ~src ~dst ~bits =
  let idx = (src * t.n_pes) + dst in
  if t.hops.(idx) < 0 then infinity else bits *. t.ebits.(idx)

let c_probe_transactions =
  Noc_obs.Counters.counter "eas.kernel.probe_transactions"

(* Scratch overlay: the reservations a probe would have made on the
   shared link tables, kept in private per-link timelines instead. A
   window is free for this probe iff it is free on the shared table
   {e and} on the overlay — exactly the merged busy set the
   reserve-then-rollback path queries — and [Timeline.earliest_gap_multi]
   is insensitive to how a busy set is partitioned across tables, so the
   probe returns bit-identical starts without ever writing shared state. *)
type overlay = (int * Timeline.t) list ref

let overlay_find (ov : overlay) idx =
  let rec go = function
    | [] -> None
    | (i, tl) :: rest -> if i = idx then Some tl else go rest
  in
  go !ov

let overlay_table (ov : overlay) idx =
  match overlay_find ov idx with
  | Some tl -> tl
  | None ->
    let tl = Timeline.create () in
    ov := (idx, tl) :: !ov;
    tl

(* The tables a probe's window must be free on: each route link's
   shared table, followed by its overlay table when the probe reserved
   on that link. [route] is non-empty (the caller handles same-tile
   transactions); one counting pass sizes the array. *)
let probe_tables state (ov : overlay) n route =
  let shared l = Resource_state.link_table state l in
  let scratch (l : Noc_noc.Routing.link) =
    overlay_find ov ((l.Noc_noc.Routing.from_node * n) + l.to_node)
  in
  let extra =
    Array.fold_left (fun c l -> if Option.is_some (scratch l) then c + 1 else c) 0 route
  in
  let tables = Array.make (Array.length route + extra) (shared route.(0)) in
  let k = ref 0 in
  Array.iter
    (fun l ->
      tables.(!k) <- shared l;
      incr k;
      match scratch l with
      | Some tl ->
        tables.(!k) <- tl;
        incr k
      | None -> ())
    route;
  tables

let data_ready ?(model = Comm_sched.Contention_aware) t state ~pendings ~pe =
  let n = t.n_pes in
  let ov : overlay = ref [] in
  (* [None] once a predecessor cannot reach [pe] at all: F(i,k) is
     infinite, mirroring the probing path's [Invalid_argument] escape. *)
  let rec arrivals acc = function
    | [] -> Some acc
    | (p : Comm_sched.pending) :: rest ->
      Noc_obs.Counters.incr c_probe_transactions;
      let src = p.Comm_sched.src_pe in
      if src = pe then arrivals (Float.max acc p.Comm_sched.sender_finish) rest
      else begin
        let pair = (src * n) + pe in
        let h = t.hops.(pair) in
        if h < 0 then None
        else begin
          let duration =
            (p.Comm_sched.bits /. t.link_bandwidth)
            +. (float_of_int (h - 1) *. t.router_latency)
          in
          let start =
            match model with
            | Comm_sched.Fixed_delay -> p.Comm_sched.sender_finish
            | Comm_sched.Contention_aware ->
              let route = t.links.(pair) in
              let tables = probe_tables state ov n route in
              let start =
                Timeline.earliest_gap_multi tables
                  ~after:p.Comm_sched.sender_finish ~duration
              in
              (* The overlay reservation only exists to constrain the
                 remaining pendings; the last one can skip it. *)
              if rest <> [] then begin
                let interval =
                  Noc_util.Interval.make ~start ~stop:(start +. duration)
                in
                Array.iter
                  (fun (l : Noc_noc.Routing.link) ->
                    let idx = (l.Noc_noc.Routing.from_node * n) + l.to_node in
                    Timeline.reserve (overlay_table ov idx) interval)
                  route
              end;
              start
          in
          arrivals (Float.max acc (start +. duration)) rest
        end
      end
  in
  match arrivals 0. pendings with None -> infinity | Some drt -> drt

let finish_time ?model t state ~pendings ~task ~pe =
  let drt = data_ready ?model t state ~pendings ~pe in
  if drt = infinity then infinity
  else begin
    let exec = t.exec_times.((task * t.n_pes) + pe) in
    let ready = Float.max drt t.releases.(task) in
    let start =
      Timeline.earliest_gap (Resource_state.pe_table state pe) ~after:ready
        ~duration:exec
    in
    start +. exec
  end

let drt_deps ?(model = Comm_sched.Contention_aware) t state ~pendings ~pe =
  if
    List.exists
      (fun (p : Comm_sched.pending) ->
        p.Comm_sched.src_pe <> pe && not (reachable t ~src:p.Comm_sched.src_pe ~dst:pe))
      pendings
  then [||]  (* DRT is statically infinite: no table can change it *)
  else begin
    match model with
    | Comm_sched.Fixed_delay -> [||]  (* no reservations: DRT is static *)
    | Comm_sched.Contention_aware ->
      Array.of_list
        (List.concat_map
           (fun (p : Comm_sched.pending) ->
             if p.Comm_sched.src_pe = pe then []
             else
               Array.to_list
                 (Array.map
                    (Resource_state.link_table state)
                    t.links.((p.Comm_sched.src_pe * t.n_pes) + pe)))
           pendings)
  end
