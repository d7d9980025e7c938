(* Static mapping objective with O(incident arcs) incremental deltas.

   The objective over a task-to-tile mapping [m] decomposes into three
   term families, each a pure function of the mapping restricted to its
   own endpoints:

     exec term (per task)  e_i^{m(i)}                  (Eq. 3, first sum)
     arc term  (per arc)   v_e * ebit(m(src), m(dst))  (Eq. 3, second sum)
                           + w_lat * dur(m(src), m(dst), v_e)
     tile term (per tile)  w_bal * (count_k)^2

   The value is the fixed-order sum task 0..n-1, arc 0..m-1, tile
   0..p-1. A move only touches the mover's exec term, its incident arc
   terms and two tile terms, so a state that re-derives exactly those
   terms after each move holds term arrays elementwise bit-identical to
   a from-scratch recompute — and the fixed-order total is then the
   same float. [test_map] pins [value] against [full_value] with a
   qcheck law over random move/swap sequences; nothing here may
   accumulate a running total across moves.

   The per-(src,dst) cost tables are lifted once from the flat kernel
   matrices ({!Noc_eas.Kernel}), so scoring never touches the platform
   route memo on the hot path. *)

type weights = { latency : float; balance : float }

let energy_only = { latency = 0.; balance = 0. }

type tables = {
  n_tasks : int;
  n_pes : int;
  weights : weights;
  exec_energy : float array;  (* task * n_pes + pe *)
  ebits : float array;  (* src_pe * n_pes + dst_pe; infinity if unreachable *)
  hops : int array;  (* src_pe * n_pes + dst_pe; -1 if unreachable *)
  link_bandwidth : float;
  router_latency : float;
  arc_src : int array;  (* arc id -> producer task *)
  arc_dst : int array;
  arc_volume : float array;
  incident : int array array;  (* task -> incident arc ids, ascending *)
}

let lift ?(weights = energy_only) kernel =
  Noc_obs.Trace.span ~cat:"map" "map/tables" @@ fun () ->
  let platform = Noc_eas.Kernel.platform kernel and ctg = Noc_eas.Kernel.ctg kernel in
  let n_tasks = Noc_eas.Kernel.n_tasks kernel in
  let n_pes = Noc_eas.Kernel.n_pes kernel in
  let exec_energy =
    Array.init (n_tasks * n_pes) (fun idx ->
        Noc_eas.Kernel.exec_energy kernel ~task:(idx / n_pes) ~pe:(idx mod n_pes))
  in
  let ebits =
    Array.init (n_pes * n_pes) (fun idx ->
        let src = idx / n_pes and dst = idx mod n_pes in
        if Noc_eas.Kernel.reachable kernel ~src ~dst then
          (* bits = 1.0 makes [comm_energy] return the raw per-bit route
             energy: the kernel prices a transfer as [bits *. ebit]. *)
          Noc_eas.Kernel.comm_energy kernel ~src ~dst ~bits:1.0
        else infinity)
  in
  let hops =
    Array.init (n_pes * n_pes) (fun idx ->
        Noc_eas.Kernel.hops kernel ~src:(idx / n_pes) ~dst:(idx mod n_pes))
  in
  let n_edges = Noc_ctg.Ctg.n_edges ctg in
  let arc_src = Array.make n_edges 0 in
  let arc_dst = Array.make n_edges 0 in
  let arc_volume = Array.make n_edges 0. in
  Array.iter
    (fun (e : Noc_ctg.Edge.t) ->
      arc_src.(e.id) <- e.src;
      arc_dst.(e.id) <- e.dst;
      arc_volume.(e.id) <- e.volume)
    (Noc_ctg.Ctg.edges ctg);
  let incident_l = Array.make n_tasks [] in
  for e = n_edges - 1 downto 0 do
    incident_l.(arc_src.(e)) <- e :: incident_l.(arc_src.(e));
    incident_l.(arc_dst.(e)) <- e :: incident_l.(arc_dst.(e))
  done;
  {
    n_tasks;
    n_pes;
    weights;
    exec_energy;
    ebits;
    hops;
    link_bandwidth = Noc_noc.Platform.link_bandwidth platform;
    router_latency = Noc_noc.Platform.router_latency platform;
    arc_src;
    arc_dst;
    arc_volume;
    incident = Array.map Array.of_list incident_l;
  }

let mean_exec_energy t =
  let acc = ref 0. in
  Array.iter (fun e -> acc := !acc +. e) t.exec_energy;
  !acc /. float_of_int (Array.length t.exec_energy)

(* The three term families. Each is the single scoring code path: both
   the full recompute and the incremental refresh call these, so the
   bit-identity of [value] and [full_value] reduces to "same inputs". *)

let exec_term t task pe = t.exec_energy.((task * t.n_pes) + pe)

let arc_term t e ~src_pe ~dst_pe =
  let pair = (src_pe * t.n_pes) + dst_pe in
  let energy = t.arc_volume.(e) *. t.ebits.(pair) in
  if t.weights.latency = 0. then energy
  else
    let h = t.hops.(pair) in
    let dur =
      if h <= 0 then 0.
      else
        (t.arc_volume.(e) /. t.link_bandwidth)
        +. (float_of_int (h - 1) *. t.router_latency)
    in
    energy +. (t.weights.latency *. dur)

let tile_term t count =
  if t.weights.balance = 0. then 0.
  else t.weights.balance *. float_of_int (count * count)

let full_value t mapping =
  let acc = ref 0. in
  for i = 0 to t.n_tasks - 1 do
    acc := !acc +. exec_term t i mapping.(i)
  done;
  for e = 0 to Array.length t.arc_src - 1 do
    acc :=
      !acc +. arc_term t e ~src_pe:mapping.(t.arc_src.(e)) ~dst_pe:mapping.(t.arc_dst.(e))
  done;
  if t.weights.balance <> 0. then begin
    let counts = Array.make t.n_pes 0 in
    Array.iter (fun pe -> counts.(pe) <- counts.(pe) + 1) mapping;
    for k = 0 to t.n_pes - 1 do
      acc := !acc +. tile_term t counts.(k)
    done
  end;
  !acc

type state = {
  tables : tables;
  mapping : int array;
  counts : int array;  (* tasks per tile *)
  exec_terms : float array;  (* per task *)
  arc_terms : float array;  (* per arc *)
}

let create tables mapping =
  if Array.length mapping <> tables.n_tasks then
    invalid_arg "Objective.create: mapping length <> task count";
  Array.iter
    (fun pe ->
      if pe < 0 || pe >= tables.n_pes then
        invalid_arg "Objective.create: tile out of range")
    mapping;
  let mapping = Array.copy mapping in
  let counts = Array.make tables.n_pes 0 in
  Array.iter (fun pe -> counts.(pe) <- counts.(pe) + 1) mapping;
  {
    tables;
    mapping;
    counts;
    exec_terms = Array.init tables.n_tasks (fun i -> exec_term tables i mapping.(i));
    arc_terms =
      Array.init
        (Array.length tables.arc_src)
        (fun e ->
          arc_term tables e ~src_pe:mapping.(tables.arc_src.(e))
            ~dst_pe:mapping.(tables.arc_dst.(e)));
  }

let mapping s = Array.copy s.mapping
let tile_of s task = s.mapping.(task)
let count s pe = s.counts.(pe)

(* Fixed-order sum over the maintained term arrays: identical order to
   [full_value], so equal terms give the equal total. *)
let value s =
  let t = s.tables in
  let acc = ref 0. in
  for i = 0 to t.n_tasks - 1 do
    acc := !acc +. s.exec_terms.(i)
  done;
  for e = 0 to Array.length s.arc_terms - 1 do
    acc := !acc +. s.arc_terms.(e)
  done;
  if t.weights.balance <> 0. then
    for k = 0 to t.n_pes - 1 do
      acc := !acc +. tile_term t s.counts.(k)
    done;
  !acc

(* Arc term after remapping [task] to [to_] (and, for swaps, [other] to
   [other_to]): endpoints are read through the overlay, never the
   mutated arrays, so deltas are computable without touching state. *)
let arc_term_with s e ~task ~to_ ?other ?other_to () =
  let t = s.tables in
  let look v =
    if v = task then to_
    else
      match (other, other_to) with
      | Some o, Some ot when v = o -> ot
      | _ -> s.mapping.(v)
  in
  arc_term t e ~src_pe:(look t.arc_src.(e)) ~dst_pe:(look t.arc_dst.(e))

(* Delta of moving [task] to tile [to_]: the mover's exec term, its
   incident arc terms and the two affected tile terms, accumulated in
   incident-arc order. O(incident arcs). *)
let move_delta s ~task ~to_ =
  let t = s.tables in
  let from = s.mapping.(task) in
  if from = to_ then 0.
  else begin
    let acc = ref (exec_term t task to_ -. s.exec_terms.(task)) in
    Array.iter
      (fun e -> acc := !acc +. (arc_term_with s e ~task ~to_ () -. s.arc_terms.(e)))
      t.incident.(task);
    if t.weights.balance <> 0. then begin
      let cf = s.counts.(from) and ct = s.counts.(to_) in
      acc := !acc +. (tile_term t (cf - 1) -. tile_term t cf);
      acc := !acc +. (tile_term t (ct + 1) -. tile_term t ct)
    end;
    !acc
  end

let apply_move s ~task ~to_ =
  let t = s.tables in
  let from = s.mapping.(task) in
  if from <> to_ then begin
    s.mapping.(task) <- to_;
    s.counts.(from) <- s.counts.(from) - 1;
    s.counts.(to_) <- s.counts.(to_) + 1;
    s.exec_terms.(task) <- exec_term t task to_;
    Array.iter
      (fun e ->
        s.arc_terms.(e) <-
          arc_term t e ~src_pe:s.mapping.(t.arc_src.(e)) ~dst_pe:s.mapping.(t.arc_dst.(e)))
      t.incident.(task)
  end

(* Swap the tiles of [a] and [b]. Arcs incident to both are visited once
   (in [a]'s incident order) with both endpoints overlaid. Tile counts
   are unchanged, so the balance delta is zero by construction. *)
let swap_delta s ~a ~b =
  let t = s.tables in
  let pa = s.mapping.(a) and pb = s.mapping.(b) in
  if pa = pb || a = b then 0.
  else begin
    let acc =
      ref
        (exec_term t a pb -. s.exec_terms.(a)
        +. (exec_term t b pa -. s.exec_terms.(b)))
    in
    let touch e =
      acc :=
        !acc
        +. (arc_term_with s e ~task:a ~to_:pb ~other:b ~other_to:pa () -. s.arc_terms.(e))
    in
    Array.iter touch t.incident.(a);
    Array.iter
      (fun e ->
        let joint = t.arc_src.(e) = a || t.arc_dst.(e) = a in
        if not joint then touch e)
      t.incident.(b);
    !acc
  end

let apply_swap s ~a ~b =
  let t = s.tables in
  let pa = s.mapping.(a) and pb = s.mapping.(b) in
  if pa <> pb && a <> b then begin
    s.mapping.(a) <- pb;
    s.mapping.(b) <- pa;
    s.exec_terms.(a) <- exec_term t a pb;
    s.exec_terms.(b) <- exec_term t b pa;
    let refresh e =
      s.arc_terms.(e) <-
        arc_term t e ~src_pe:s.mapping.(t.arc_src.(e)) ~dst_pe:s.mapping.(t.arc_dst.(e))
    in
    Array.iter refresh t.incident.(a);
    Array.iter refresh t.incident.(b)
  end
