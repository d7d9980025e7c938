type t = {
  n_pes : int;
  mutable tasks_rev : Task.t list;
  mutable n_tasks : int;
  mutable edges_rev : Edge.t list;
  mutable n_edges : int;
}

let create ~n_pes =
  if n_pes <= 0 then invalid_arg "Builder.create: n_pes must be positive";
  { n_pes; tasks_rev = []; n_tasks = 0; edges_rev = []; n_edges = 0 }

let add_task t ?name ~exec_times ~energies ?deadline () =
  if Array.length exec_times <> t.n_pes then
    invalid_arg "Builder.add_task: wrong exec_times length";
  let id = t.n_tasks in
  let task = Task.make ~id ?name ~exec_times ~energies ?deadline () in
  t.tasks_rev <- task :: t.tasks_rev;
  t.n_tasks <- id + 1;
  id

let add_uniform_task t ~time ~energy ?deadline () =
  add_task t
    ~exec_times:(Array.make t.n_pes time)
    ~energies:(Array.make t.n_pes energy)
    ?deadline ()

let connect t ~src ~dst ~volume =
  if src >= t.n_tasks || dst >= t.n_tasks then
    invalid_arg "Builder.connect: unknown task id";
  let id = t.n_edges in
  t.edges_rev <- Edge.make ~id ~src ~dst ~volume :: t.edges_rev;
  t.n_edges <- id + 1

let build t =
  Ctg.make
    ~tasks:(Array.of_list (List.rev t.tasks_rev))
    ~edges:(Array.of_list (List.rev t.edges_rev))

let build_exn t =
  match build t with Ok g -> g | Error msg -> invalid_arg ("Builder.build: " ^ msg)
