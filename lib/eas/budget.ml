type weighting = Variance_product | Mean_time | Uniform

type t = {
  mean_times : float array;
  weights : float array;
  asap : float array;
  budgeted_deadlines : float array;
}

type backward = {
  deadline : float;  (* tightest reachable deadline, or infinity *)
  remaining_mean : float;  (* mean time from this task (inclusive) to it *)
  remaining_weight : float;
  remaining_count : int;
}

let compute ?(weighting = Variance_product) ?kernel ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let task i = Noc_ctg.Ctg.task ctg i in
  (* The kernel carries the same per-task means and variance-product
     weights, computed once by the same [Task] functions — reading them
     back is bit-identical to recomputing. *)
  let mean_times =
    match kernel with
    | Some kernel -> Array.init n (Kernel.mean_time kernel)
    | None -> Array.init n (fun i -> Noc_ctg.Task.mean_exec_time (task i))
  in
  let weights =
    match weighting with
    | Variance_product -> (
      match kernel with
      | Some kernel -> Array.init n (Kernel.weight kernel)
      | None -> Array.init n (fun i -> Noc_ctg.Task.weight (task i)))
    | Mean_time -> Array.copy mean_times
    | Uniform -> Array.make n 1.
  in
  let order = Noc_ctg.Ctg.topological_order ctg in
  (* Forward pass: asap finish plus weight/count along the binding path. *)
  let asap = Array.make n 0. in
  let fwd_weight = Array.make n 0. in
  let fwd_count = Array.make n 0 in
  Array.iter
    (fun i ->
      let binding_pred =
        List.fold_left
          (fun best p ->
            match best with
            | None -> Some p
            | Some b -> if asap.(p) > asap.(b) then Some p else Some b)
          None (Noc_ctg.Ctg.preds ctg i)
      in
      let base_time, base_weight, base_count =
        match binding_pred with
        | None -> (0., 0., 0)
        | Some p -> (asap.(p), fwd_weight.(p), fwd_count.(p))
      in
      let base_time =
        match (task i).Noc_ctg.Task.release with
        | None -> base_time
        | Some release -> Float.max base_time release
      in
      asap.(i) <- base_time +. mean_times.(i);
      fwd_weight.(i) <- base_weight +. weights.(i);
      fwd_count.(i) <- base_count + 1)
    order;
  (* Backward pass: follow the tightest deadline chain. *)
  let none = { deadline = infinity; remaining_mean = 0.; remaining_weight = 0.; remaining_count = 0 } in
  let bwd = Array.make n none in
  let latest_start b = b.deadline -. b.remaining_mean in
  for idx = n - 1 downto 0 do
    let i = order.(idx) in
    let own =
      match (task i).Noc_ctg.Task.deadline with
      | None -> none
      | Some d ->
        {
          deadline = d;
          remaining_mean = mean_times.(i);
          remaining_weight = weights.(i);
          remaining_count = 1;
        }
    in
    let via_succ =
      List.fold_left
        (fun best j ->
          let bj = bwd.(j) in
          if bj.deadline = infinity then best
          else
            let candidate =
              {
                deadline = bj.deadline;
                remaining_mean = bj.remaining_mean +. mean_times.(i);
                remaining_weight = bj.remaining_weight +. weights.(i);
                remaining_count = bj.remaining_count + 1;
              }
            in
            if latest_start candidate < latest_start best then candidate else best)
        own (Noc_ctg.Ctg.succs ctg i)
    in
    bwd.(i) <- via_succ
  done;
  let budgeted_deadlines =
    Array.init n (fun i ->
        let b = bwd.(i) in
        if b.deadline = infinity then infinity
        else begin
          (* Slack may be negative: the deadline then demands
             faster-than-mean placements, and the required speed-up is
             distributed with the same proportional rule, so the sink's
             budget equals its deadline exactly. *)
          let path_mean = asap.(i) -. mean_times.(i) +. b.remaining_mean in
          let slack = b.deadline -. path_mean in
          let total_weight = fwd_weight.(i) +. b.remaining_weight -. weights.(i) in
          let share =
            if total_weight > 0. then fwd_weight.(i) /. total_weight
            else begin
              (* Zero weights everywhere on the path: uniform shares. *)
              let total_count = fwd_count.(i) + b.remaining_count - 1 in
              float_of_int fwd_count.(i) /. float_of_int total_count
            end
          in
          asap.(i) +. (slack *. share)
        end)
  in
  { mean_times; weights; asap; budgeted_deadlines }
