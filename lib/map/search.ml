(* Seeded simulated-annealing mapping search.

   K independent chains anneal over the incremental {!Objective}
   evaluator; chain [c]'s moves come from the [c]-th split of a master
   PRNG seeded by [params.seed], so a chain's trajectory is a pure
   function of (seed, chain index). The chains fan out over
   {!Noc_util.Pool.map_range}, whose determinism contract makes the
   whole search bit-identical at every [--jobs] — and a (seed, chains=K)
   run's first J chains identical to a (seed, chains=J) run's.

   Chain 0 starts from the identity mapping and every chain tracks its
   best-so-far, so with the pure-energy objective the best static value
   never exceeds the identity's. Survivors (plus the identity, always)
   then get a real pinned EAS schedule and an independent {!Certify}
   pass; the winner minimises (deadline misses, Eq.-3 energy, listing
   position). *)

module Prng = Noc_util.Prng

type params = {
  chains : int;
  iters : int;  (* proposed moves per chain *)
  survivors : int;  (* best-K chains that get a full EAS evaluation *)
  seed : int;
  weights : Objective.weights;
  capacity : int option;  (* max tasks per tile; None = 1.25x the mean *)
  t0_frac : float;  (* initial temperature / initial objective value *)
  t_end_frac : float;  (* final temperature / initial objective value *)
}

let default_params =
  {
    chains = 4;
    iters = 20_000;
    survivors = 2;
    seed = 0;
    weights = Objective.energy_only;
    capacity = None;
    t0_frac = 0.05;
    t_end_frac = 1e-4;
  }

type origin = Identity | Chain of int

type candidate = {
  origin : origin;
  mapping : int array;
  static_value : float;
  energy : float;
  makespan : float;
  misses : int;
  cert_errors : int;
  schedule : Noc_sched.Schedule.t;
  stats : Noc_eas.Eas.stats;
}

type chain_result = {
  chain : int;
  value : float;  (* canonical full recompute of the best mapping *)
  accepted : int;
  best_mapping : int array;
}

type result = {
  search_params : params;
  chain_results : chain_result list;
  candidates : candidate list;
  winner : candidate;
}

let identity_mapping ~n_tasks ~n_pes = Array.init n_tasks (fun i -> i mod n_pes)

let default_capacity ~n_tasks ~n_pes =
  max 1 (int_of_float (ceil (1.25 *. float_of_int n_tasks /. float_of_int n_pes)))

(* The [chain]-th split of the master stream: depends only on
   (seed, chain), never on how many chains run. *)
let chain_rng ~seed ~chain =
  let master = Prng.create ~seed in
  let rec nth c =
    let s = Prng.split master in
    if c = 0 then s else nth (c - 1)
  in
  nth chain

let random_mapping rng ~n_tasks ~n_pes ~capacity =
  let counts = Array.make n_pes 0 in
  Array.init n_tasks (fun _ ->
      let rec draw () =
        let pe = Prng.int rng ~bound:n_pes in
        if counts.(pe) < capacity then begin
          counts.(pe) <- counts.(pe) + 1;
          pe
        end
        else draw ()
      in
      draw ())

let c_moves = Noc_obs.Counters.counter "map.sa.proposed"
let c_accepted = Noc_obs.Counters.counter "map.sa.accepted"

let run_chain tables ~params ~n_tasks ~n_pes ~capacity chain =
  Noc_obs.Trace.span ~cat:"map" "map/chain"
    ~args:(fun () -> [ ("chain", Noc_obs.Trace.Int chain) ])
  @@ fun () ->
  let rng = chain_rng ~seed:params.seed ~chain in
  let start =
    if chain = 0 then identity_mapping ~n_tasks ~n_pes
    else random_mapping rng ~n_tasks ~n_pes ~capacity
  in
  let state = Objective.create tables start in
  let v0 = Objective.value state in
  let t0 = Float.max (params.t0_frac *. Float.abs v0) 1e-9 in
  let cool =
    if params.iters <= 1 then 1.
    else (params.t_end_frac /. params.t0_frac) ** (1. /. float_of_int params.iters)
  in
  (* [cur] is a fast running total for acceptance bookkeeping only; the
     returned value is a canonical full recompute of [best], so ulp
     drift here can never leak into ranking or reported numbers. *)
  let cur = ref v0 in
  let best = ref v0 in
  let best_mapping = ref (Objective.mapping state) in
  let accepted = ref 0 in
  let temp = ref t0 in
  let note_accept delta =
    incr accepted;
    cur := !cur +. delta;
    if !cur < !best then begin
      best := !cur;
      best_mapping := Objective.mapping state
    end
  in
  let accepts delta =
    delta <= 0. || Prng.float rng ~bound:1. < exp (-.delta /. !temp)
  in
  for _ = 1 to params.iters do
    Noc_obs.Counters.incr c_moves;
    let task = Prng.int rng ~bound:n_tasks in
    if Prng.bool rng then begin
      let to_ = Prng.int rng ~bound:n_pes in
      if to_ <> Objective.tile_of state task && Objective.count state to_ < capacity
      then begin
        let delta = Objective.move_delta state ~task ~to_ in
        if accepts delta then begin
          Objective.apply_move state ~task ~to_;
          Noc_obs.Counters.incr c_accepted;
          note_accept delta
        end
      end
    end
    else begin
      let b = Prng.int rng ~bound:n_tasks in
      if task <> b && Objective.tile_of state task <> Objective.tile_of state b
      then begin
        let delta = Objective.swap_delta state ~a:task ~b in
        if accepts delta then begin
          Objective.apply_swap state ~a:task ~b;
          Noc_obs.Counters.incr c_accepted;
          note_accept delta
        end
      end
    end;
    temp := !temp *. cool
  done;
  {
    chain;
    value = Objective.full_value tables !best_mapping;
    accepted = !accepted;
    best_mapping = !best_mapping;
  }

(* No [jobs] here on purpose: pinned candidate rows are singletons, so
   Step 2's parallel probe refresh would spawn a domain pool per commit
   iteration and buy nothing (profiled at ~6s per 2000-task evaluation
   against 0.15s serial). *)
let evaluate ~kernel ~origin mapping =
  Noc_obs.Trace.span ~cat:"map" "map/evaluate" @@ fun () ->
  let platform = Noc_eas.Kernel.platform kernel and ctg = Noc_eas.Kernel.ctg kernel in
  let outcome = Noc_eas.Eas.schedule ~pinned:mapping ~kernel platform ctg in
  let metrics = Noc_sched.Metrics.compute platform ctg outcome.Noc_eas.Eas.schedule in
  let diags =
    Noc_analysis.Certify.check ~claimed_energy:metrics.Noc_sched.Metrics.total_energy
      platform ctg outcome.Noc_eas.Eas.schedule
  in
  let cert_errors =
    List.length
      (List.filter
         (fun (d : Noc_analysis.Diagnostic.t) ->
           d.severity = Noc_analysis.Diagnostic.Error)
         diags)
  in
  fun static_value ->
    {
      origin;
      mapping = Array.copy mapping;
      static_value;
      energy = metrics.Noc_sched.Metrics.total_energy;
      makespan = metrics.Noc_sched.Metrics.makespan;
      misses = Noc_sched.Metrics.miss_count metrics;
      cert_errors;
      schedule = outcome.Noc_eas.Eas.schedule;
      stats = outcome.Noc_eas.Eas.stats;
    }

let run ?jobs ?(params = default_params) kernel =
  Noc_obs.Trace.span ~cat:"map" "map/search"
    ~args:(fun () ->
      [
        ("chains", Noc_obs.Trace.Int params.chains);
        ("iters", Noc_obs.Trace.Int params.iters);
      ])
  @@ fun () ->
  if params.chains < 1 then invalid_arg "Search.run: chains must be >= 1";
  if params.iters < 0 then invalid_arg "Search.run: iters must be >= 0";
  let n_tasks = Noc_eas.Kernel.n_tasks kernel in
  let n_pes = Noc_eas.Kernel.n_pes kernel in
  (* One kernel (the dominant cost at 16x16) shared read-only by the
     tables, every chain and every survivor evaluation. *)
  let tables = Objective.lift ~weights:params.weights kernel in
  let capacity =
    match params.capacity with
    | Some c ->
      if c * n_pes < n_tasks then
        invalid_arg "Search.run: capacity * tiles < tasks";
      c
    | None -> default_capacity ~n_tasks ~n_pes
  in
  let chain_results =
    Noc_util.Pool.map_range ?jobs ~n:params.chains (fun c ->
        run_chain tables ~params ~n_tasks ~n_pes ~capacity c)
  in
  let ranked =
    List.sort
      (fun a b -> compare (a.value, a.chain) (b.value, b.chain))
      chain_results
  in
  let survivors =
    List.filteri (fun rank _ -> rank < max 1 params.survivors) ranked
  in
  let identity = identity_mapping ~n_tasks ~n_pes in
  let candidates =
    List.map
      (fun r ->
        evaluate ~kernel ~origin:(Chain r.chain) r.best_mapping r.value)
      survivors
    @ [
        evaluate ~kernel ~origin:Identity identity (Objective.full_value tables identity);
      ]
  in
  let winner =
    match candidates with
    | [] -> assert false
    | first :: rest ->
      List.fold_left
        (fun best c ->
          if (c.misses, c.energy) < (best.misses, best.energy) then c else best)
        first rest
  in
  { search_params = params; chain_results; candidates; winner }

let origin_name = function Identity -> "identity" | Chain c -> Printf.sprintf "sa#%d" c

let pp_result ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-9s static %.6g energy %.6g makespan %.6g misses %d cert %s@,"
        (origin_name c.origin) c.static_value c.energy c.makespan c.misses
        (if c.cert_errors = 0 then "ok" else string_of_int c.cert_errors ^ " errors"))
    r.candidates;
  Format.fprintf ppf "winner: %s (energy %.6g, misses %d)@]"
    (origin_name r.winner.origin) r.winner.energy r.winner.misses
