(* Flat dense matrices, indexed [task * n_pes + pe] and [src * n_pes + dst].
   Every float stored here is produced by exactly the expression the
   per-call platform query would have evaluated (same operands, same
   operation order), so consulting the kernel instead of the platform is
   invisible at the bit level — the contract the differential suite
   pins. *)
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
          ebits.(idx) <- Noc_noc.Energy_model.bit_energy energy ~n_hops:h)
      | None ->
        let h = Noc_noc.Platform.hops platform ~src ~dst in
        hops.(idx) <- h;
        ebits.(idx) <- Noc_noc.Energy_model.bit_energy energy ~n_hops:h
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
