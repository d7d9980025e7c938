type t = {
  tasks : Task.t array;
  edges : Edge.t array;
  in_edges : int list array;  (* edge ids, increasing *)
  out_edges : int list array;
  topo : int array;
}

let validate ~tasks ~edges =
  let n = Array.length tasks in
  if n = 0 then Error "graph has no task"
  else begin
    let pe_count = Task.n_pes tasks.(0) in
    let problem = ref None in
    let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
    Array.iteri
      (fun i task ->
        if task.Task.id <> i then fail "task at position %d has id %d" i task.Task.id;
        if Task.n_pes task <> pe_count then
          fail "task %d has %d PE costs, expected %d" i (Task.n_pes task) pe_count)
      tasks;
    let seen = Hashtbl.create (2 * Array.length edges) in
    Array.iteri
      (fun i e ->
        if e.Edge.id <> i then fail "edge at position %d has id %d" i e.Edge.id;
        if e.Edge.src >= n || e.Edge.dst >= n then
          fail "edge %d references missing task (%d -> %d)" i e.Edge.src e.Edge.dst
        else begin
          let key = (e.Edge.src, e.Edge.dst) in
          if Hashtbl.mem seen key then fail "duplicate arc %d -> %d" e.Edge.src e.Edge.dst;
          Hashtbl.replace seen key ()
        end)
      edges;
    match !problem with Some msg -> Error msg | None -> Ok pe_count
  end

let make ~tasks ~edges =
  match validate ~tasks ~edges with
  | Error msg -> Error msg
  | Ok _pe_count ->
    let n = Array.length tasks in
    let in_edges = Array.make n [] and out_edges = Array.make n [] in
    Array.iter
      (fun e ->
        in_edges.(e.Edge.dst) <- e.Edge.id :: in_edges.(e.Edge.dst);
        out_edges.(e.Edge.src) <- e.Edge.id :: out_edges.(e.Edge.src))
      edges;
    Array.iteri (fun i l -> in_edges.(i) <- List.rev l) in_edges;
    Array.iteri (fun i l -> out_edges.(i) <- List.rev l) out_edges;
    let succ v = List.map (fun eid -> edges.(eid).Edge.dst) out_edges.(v) in
    (match Noc_util.Topo_sort.sort ~n ~succ with
    | Error members ->
      Error
        (Printf.sprintf "graph has a cycle through tasks {%s}"
           (String.concat ", " (List.map string_of_int members)))
    | Ok topo -> Ok { tasks; edges; in_edges; out_edges; topo })

let make_exn ~tasks ~edges =
  match make ~tasks ~edges with
  | Ok g -> g
  | Error msg -> invalid_arg ("Ctg.make: " ^ msg)

let n_tasks g = Array.length g.tasks
let n_edges g = Array.length g.edges
let n_pes g = Task.n_pes g.tasks.(0)
let task g i = g.tasks.(i)
let edge g i = g.edges.(i)
let tasks g = g.tasks
let edges g = g.edges
let in_edges g i = List.map (fun eid -> g.edges.(eid)) g.in_edges.(i)
let out_edges g i = List.map (fun eid -> g.edges.(eid)) g.out_edges.(i)
let preds g i = List.map (fun e -> e.Edge.src) (in_edges g i)
let succs g i = List.map (fun e -> e.Edge.dst) (out_edges g i)

let sources g =
  List.filter (fun i -> g.in_edges.(i) = []) (List.init (n_tasks g) Fun.id)

let sinks g =
  List.filter (fun i -> g.out_edges.(i) = []) (List.init (n_tasks g) Fun.id)

let topological_order g = Array.copy g.topo

let total_volume g =
  Array.fold_left (fun acc e -> acc +. e.Edge.volume) 0. g.edges

let deadline_tasks g =
  List.filter
    (fun i -> Option.is_some g.tasks.(i).Task.deadline)
    (List.init (n_tasks g) Fun.id)

let critical_path_with g cost =
  let succ v = succs g v in
  let lengths =
    Noc_util.Topo_sort.longest_path_lengths ~n:(n_tasks g) ~succ
      ~weight:(fun v -> cost g.tasks.(v))
  in
  Noc_util.Stats.max_value lengths

let mean_critical_path g = critical_path_with g Task.mean_exec_time
let min_critical_path g = critical_path_with g (fun t -> Noc_util.Stats.min_value t.Task.exec_times)

let min_load_bound g =
  let total =
    Array.fold_left
      (fun acc t -> acc +. Noc_util.Stats.min_value t.Task.exec_times)
      0. g.tasks
  in
  total /. float_of_int (n_pes g)

(* Canonical serialization for the content digest. Hex floats make the
   text (and hence the digest) exact; task names are display labels and
   edge ids arbitrary declaration positions, so neither participates —
   two graphs posing the same scheduling problem digest identically.
   The daemon digests every graph that misses its parse cache, so the
   text is written straight into one buffer, without format strings. *)
let digest g =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf and add_int = Noc_util.Scan.add_int buf in
  let add_hex v =
    Buffer.add_char buf ' ';
    Noc_util.Scan.add_hex_float buf v
  in
  add "ctg-digest/v1 pes ";
  add_int (n_pes g);
  Buffer.add_char buf '\n';
  Array.iter
    (fun (t : Task.t) ->
      add "task ";
      add_int t.Task.id;
      Array.iter add_hex t.Task.exec_times;
      Buffer.add_char buf '|';
      Array.iter add_hex t.Task.energies;
      Option.iter (fun r -> add " release"; add_hex r) t.Task.release;
      Option.iter (fun d -> add " deadline"; add_hex d) t.Task.deadline;
      Buffer.add_char buf '\n')
    g.tasks;
  let arcs = Array.copy g.edges in
  Array.stable_sort
    (fun (a : Edge.t) (b : Edge.t) ->
      if a.Edge.src <> b.Edge.src then Int.compare a.Edge.src b.Edge.src
      else Int.compare a.Edge.dst b.Edge.dst)
    arcs;
  Array.iter
    (fun (e : Edge.t) ->
      add "edge ";
      add_int e.Edge.src;
      add " -> ";
      add_int e.Edge.dst;
      add_hex e.Edge.volume;
      Buffer.add_char buf '\n')
    arcs;
  Noc_util.Fnv.digest (Buffer.contents buf)

let pp ppf g =
  Format.fprintf ppf "ctg(%d tasks, %d edges, %d PEs)" (n_tasks g) (n_edges g) (n_pes g)

let pp_dot ppf g =
  Format.fprintf ppf "digraph ctg {@.";
  Array.iter
    (fun t ->
      Format.fprintf ppf "  %d [label=\"%s%s\"];@." t.Task.id t.Task.name
        (match t.Task.deadline with
        | None -> ""
        | Some d -> Printf.sprintf "\\nd=%g" d))
    g.tasks;
  Array.iter
    (fun e ->
      Format.fprintf ppf "  %d -> %d [label=\"%g\"];@." e.Edge.src e.Edge.dst e.Edge.volume)
    g.edges;
  Format.fprintf ppf "}@."
