type t = {
  id : int;
  name : string;
  exec_times : float array;
  energies : float array;
  release : float option;
  deadline : float option;
}

let make ~id ?name ~exec_times ~energies ?release ?deadline () =
  let name = match name with Some n -> n | None -> Printf.sprintf "t%d" id in
  if Array.length exec_times = 0 then
    invalid_arg "Task.make: empty exec_times";
  if Array.length exec_times <> Array.length energies then
    invalid_arg "Task.make: exec_times and energies lengths differ";
  Array.iter
    (fun r -> if not (r > 0. && Float.is_finite r) then invalid_arg "Task.make: exec time must be positive")
    exec_times;
  Array.iter
    (fun e -> if not (e >= 0. && Float.is_finite e) then invalid_arg "Task.make: energy must be non-negative")
    energies;
  (match deadline with
  | Some d when not (d > 0. && Float.is_finite d) ->
    invalid_arg "Task.make: deadline must be positive"
  | Some _ | None -> ());
  (match release with
  | Some r when not (r >= 0. && Float.is_finite r) ->
    invalid_arg "Task.make: release must be non-negative"
  | Some _ | None -> ());
  (match (release, deadline) with
  | Some r, Some d when r >= d -> invalid_arg "Task.make: release after deadline"
  | (Some _ | None), (Some _ | None) -> ());
  { id; name; exec_times; energies; release; deadline }

let n_pes t = Array.length t.exec_times
let mean_exec_time t = Noc_util.Stats.mean t.exec_times
let exec_time_variance t = Noc_util.Stats.variance t.exec_times
let energy_variance t = Noc_util.Stats.variance t.energies
let weight t = energy_variance t *. exec_time_variance t
