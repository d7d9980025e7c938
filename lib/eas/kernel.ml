(* Flat dense matrices, indexed by task and [src * n_pes + dst]. Every
   float stored here is produced by exactly the expression the per-call
   platform query would have evaluated (same operands, same operation
   order), so consulting the kernel instead of the platform is invisible
   at the bit level — the contract the differential suite pins. The
   per-(task, PE) costs are read from the graph's own task rows: the
   kernel holds the graph anyway, and a copy would double what a cached
   kernel keeps alive. *)
type t = {
  n_tasks : int;
  n_pes : int;
  tasks : Noc_ctg.Task.t array;  (* the graph's, not a copy *)
  releases : float array;  (* per task; [neg_infinity] when unconstrained *)
  mean_times : float array;  (* per task *)
  weights : float array;  (* per task: VAR_e * VAR_r *)
  hops : int array;  (* src * n_pes + dst; -1 when the pair is disconnected *)
  ebits : float array;  (* bit energy over the route; meaningless when hops < 0 *)
  link_bandwidth : float;
  router_latency : float;
  platform : Noc_noc.Platform.t;
  ctg : Noc_ctg.Ctg.t;
  comm_model : Noc_sched.Comm_sched.model;
  degraded : Noc_noc.Degraded.t option;  (* the fault view priced here *)
}

let n_tasks t = t.n_tasks
let n_pes t = t.n_pes

let build ?degraded ?(comm_model = Noc_sched.Comm_sched.Contention_aware) platform ctg =
  let n_pes = Noc_noc.Platform.n_pes platform in
  let n_tasks = Noc_ctg.Ctg.n_tasks ctg in
  let energy = Noc_noc.Platform.energy_model platform in
  let releases = Array.make n_tasks neg_infinity in
  let mean_times = Array.make n_tasks 0. in
  let weights = Array.make n_tasks 0. in
  for i = 0 to n_tasks - 1 do
    let task = Noc_ctg.Ctg.task ctg i in
    (match task.Noc_ctg.Task.release with
    | None -> ()
    | Some release -> releases.(i) <- release);
    mean_times.(i) <- Noc_ctg.Task.mean_exec_time task;
    weights.(i) <- Noc_ctg.Task.weight task
  done;
  let hops = Array.make (n_pes * n_pes) (-1) in
  let ebits = Array.make (n_pes * n_pes) 0. in
  for src = 0 to n_pes - 1 do
    for dst = 0 to n_pes - 1 do
      let h =
        match degraded with
        | None -> Noc_noc.Platform.hops platform ~src ~dst
        | Some view -> (
          match Noc_noc.Degraded.route_opt view ~src ~dst with
          | None -> -1  (* disconnected *)
          | Some route -> Noc_noc.Platform.route_hops route)
      in
      if h >= 0 then begin
        let idx = (src * n_pes) + dst in
        hops.(idx) <- h;
        ebits.(idx) <- Noc_noc.Energy_model.bit_energy energy ~n_hops:h
      end
    done
  done;
  {
    n_tasks;
    n_pes;
    tasks = Noc_ctg.Ctg.tasks ctg;
    releases;
    mean_times;
    weights;
    hops;
    ebits;
    link_bandwidth = Noc_noc.Platform.link_bandwidth platform;
    router_latency = Noc_noc.Platform.router_latency platform;
    platform;
    ctg;
    comm_model;
    degraded;
  }

let platform t = t.platform
let ctg t = t.ctg
let comm_model t = t.comm_model
let degraded t = t.degraded

(* Physical equality: the prices were derived from these very values,
   and comparing contents would walk the whole graph on every call. *)
let check t ~caller platform ctg =
  if platform != t.platform then
    invalid_arg (caller ^ ": the kernel was built for another platform");
  if ctg != t.ctg then invalid_arg (caller ^ ": the kernel was built for another graph")

let pe_alive t pe =
  match t.degraded with None -> true | Some view -> Noc_noc.Degraded.pe_alive view pe

let exec_time t ~task ~pe = t.tasks.(task).Noc_ctg.Task.exec_times.(pe)
let exec_energy t ~task ~pe = t.tasks.(task).Noc_ctg.Task.energies.(pe)
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
