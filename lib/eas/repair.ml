module Schedule = Noc_sched.Schedule

type moves = Both | Lts_only | Gtm_only

type stats = { accepted_swaps : int; accepted_migrations : int; evaluations : int }

let finishes schedule =
  Array.map (fun (p : Schedule.placement) -> p.finish) (Schedule.placements schedule)

(* Search score: primarily the number of missed deadlines, refined by
   the total lateness so the greedy search has a gradient to follow even
   when one move cannot yet save a whole deadline ({!Rebuild.score}). *)
let score ctg schedule = Rebuild.score ~deadlines:(Rebuild.deadlines ctg) (finishes schedule)

(* The counts are typed [int] so they compare without the polymorphic
   comparison. [Rebuild.evaluate] abandons a candidate as soon as its
   placed tasks show it cannot pass this test. *)
let improves ((m2 : int), l2) ((m1 : int), l1) = m2 < m1 || (m2 = m1 && l2 < l1 -. 1e-6)

(* Candidate bounds keeping one repair pass polynomial on 500-task
   graphs; the evaluation cap is the hard safety net. *)
let max_critical_per_pass = 24
let max_swap_candidates = 12

let take n list =
  let rec go n = function
    | [] -> []
    | _ :: _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n list

(* Tasks that miss their deadline, and their transitive predecessors. *)
let critical_of ctg ~deadlines finish =
  let critical = Array.make (Array.length deadlines) false in
  let rec mark i =
    if not critical.(i) then begin
      critical.(i) <- true;
      List.iter mark (Noc_ctg.Ctg.preds ctg i)
    end
  in
  for i = 0 to Array.length deadlines - 1 do
    if Rebuild.missed ~deadlines finish i then mark i
  done;
  critical

let critical_tasks ctg schedule =
  critical_of ctg ~deadlines:(Rebuild.deadlines ctg) (finishes schedule)

(* Estimated energy of running task [i] on PE [k]: computation plus the
   communication of every incident arc whose other endpoint is fixed.
   On a degraded platform, detoured routes are priced by their real
   length; a pair the fault set disconnects costs [infinity], pushing
   that destination to the end of the candidate order.

   The arc structure never changes during a repair, only [assignment]
   does, so GTM derives each task's (neighbour, volume) lists once and
   re-prices them across every destination and every repair iteration
   instead of re-walking [in_edges]/[out_edges] per candidate PE. *)
let incident_arcs_of ctg i =
  ( List.map
      (fun (e : Noc_ctg.Edge.t) -> (e.Noc_ctg.Edge.src, e.Noc_ctg.Edge.volume))
      (Noc_ctg.Ctg.in_edges ctg i),
    List.map
      (fun (e : Noc_ctg.Edge.t) -> (e.Noc_ctg.Edge.dst, e.Noc_ctg.Edge.volume))
      (Noc_ctg.Ctg.out_edges ctg i) )

let c_moves_priced = Noc_obs.Counters.counter "eas.repair.moves_priced"
let c_evaluations = Noc_obs.Counters.counter "eas.repair.evaluations"
let c_aborted = Noc_obs.Counters.counter "eas.repair.aborted"
let c_replaced_tasks = Noc_obs.Counters.counter "eas.repair.replaced_tasks"
let c_accepted_swaps = Noc_obs.Counters.counter "eas.repair.accepted_swaps"
let c_accepted_migrations = Noc_obs.Counters.counter "eas.repair.accepted_migrations"

let move_energy_arcs kernel ~assignment ~ins ~outs i k =
  Noc_obs.Counters.incr c_moves_priced;
  let incident_comm =
    List.fold_left
      (fun acc (src_task, bits) ->
        acc +. Kernel.comm_energy_inf kernel ~src:assignment.(src_task) ~dst:k ~bits)
      0. ins
    +. List.fold_left
         (fun acc (dst_task, bits) ->
           acc +. Kernel.comm_energy_inf kernel ~src:k ~dst:assignment.(dst_task) ~bits)
         0. outs
  in
  Kernel.exec_energy kernel ~task:i ~pe:k +. incident_comm

let move_energy kernel ~assignment i k =
  let ins, outs = incident_arcs_of (Kernel.ctg kernel) i in
  move_energy_arcs kernel ~assignment ~ins ~outs i k

(* Critical tasks in decreasing urgency: the later past its own deadline
   (or its tightest descendant deadline), the earlier it is tried. *)
let ordered_critical ~finish critical =
  List.init (Array.length critical) Fun.id
  |> List.filter (fun i -> critical.(i))
  |> List.sort (fun a b ->
         let c = Float.compare finish.(b) finish.(a) in
         if c <> 0 then c else Int.compare a b)

let run ~kernel ?(max_evaluations = 4_000) ?(moves = Both) platform ctg schedule =
  Kernel.check kernel ~caller:"Repair.run" platform ctg;
  let n = Kernel.n_tasks kernel in
  let n_pes = Kernel.n_pes kernel in
  let incident_cache = Array.make n None in
  let incident_arcs i =
    match incident_cache.(i) with
    | Some arcs -> arcs
    | None ->
      let arcs = incident_arcs_of ctg i in
      incident_cache.(i) <- Some arcs;
      arcs
  in
  (* One deadline array for the search and its incumbent. *)
  let deadlines = Rebuild.deadlines ctg in
  (* The current schedule, in arrays: [schedule] until a move is
     accepted, then the last accepted candidate. Its [Schedule.t] is
     built once, on return. *)
  let current = Rebuild.kept_of_schedule schedule in
  let accepted = ref false in
  let assignment = Array.make n 0 and rank = Array.make n 0 in
  Rebuild.kept_order current ~assignment ~rank;
  let best_score = ref (Rebuild.score ~deadlines (Rebuild.kept_finish current)) in
  let swaps = ref 0 and migrations = ref 0 and evaluations = ref 0 in
  (* Every candidate is priced against the checkpoints of the current
     (assignment, rank): recorded on first use and again after each
     accepted move. Neither recording counts as an evaluation. *)
  let incumbent = lazy (Rebuild.checkpoint kernel ~deadlines ~assignment ~rank) in
  (* [restart] names the first step the mutated move can change. A
     candidate that strands a transaction on a disconnected pair is
     simply not an improvement. *)
  let try_apply ~restart mutate restore =
    if !evaluations >= max_evaluations then false
    else begin
      let inc = Lazy.force incumbent in
      mutate ();
      incr evaluations;
      Noc_obs.Counters.incr c_evaluations;
      let outcome, replaced =
        Rebuild.evaluate inc ~assignment ~rank ~from:(restart inc) ~best:!best_score
      in
      Noc_obs.Counters.add c_replaced_tasks replaced;
      let candidate_score =
        match outcome with
        | Rebuild.Completed -> Some (Rebuild.score ~deadlines (Rebuild.finishes inc))
        | Rebuild.Abandoned ->
          Noc_obs.Counters.incr c_aborted;
          None
        | Rebuild.Failed -> None
      in
      match candidate_score with
      | Some candidate_score when improves candidate_score !best_score ->
        Rebuild.keep inc current;
        accepted := true;
        best_score := candidate_score;
        (* Re-derive the compact representation from the realised
           schedule so later moves reason about actual execution order. *)
        Rebuild.kept_order current ~assignment ~rank;
        Rebuild.rebase inc ~assignment ~rank;
        true
      | Some _ | None ->
        restore ();
        false
    end
  in
  let swap_ranks a b =
    let tmp = rank.(a) in
    rank.(a) <- rank.(b);
    rank.(b) <- tmp
  in
  (* The tasks of each PE [p] in increasing rank, at [by_pe.(pe_start.(p))]
     to [by_pe.(pe_start.(p + 1) - 1)], and each task's index there:
     filled once per LTS pass, during which no accepted move changes
     [rank] ([rank] is a permutation of the task ids). *)
  let pe_start = Array.make (n_pes + 1) 0 and fill = Array.make n_pes 0 in
  let by_rank = Array.make n 0 and by_pe = Array.make n 0 and pe_index = Array.make n 0 in
  let fill_by_pe () =
    let pe = Rebuild.kept_pe current in
    Array.fill pe_start 0 (n_pes + 1) 0;
    for t = 0 to n - 1 do
      pe_start.(pe.(t) + 1) <- pe_start.(pe.(t) + 1) + 1
    done;
    for p = 0 to n_pes - 1 do
      pe_start.(p + 1) <- pe_start.(p + 1) + pe_start.(p);
      fill.(p) <- pe_start.(p)
    done;
    for t = 0 to n - 1 do
      by_rank.(rank.(t)) <- t
    done;
    for r = 0 to n - 1 do
      let t = by_rank.(r) in
      let p = pe.(t) in
      by_pe.(fill.(p)) <- t;
      pe_index.(t) <- fill.(p);
      fill.(p) <- fill.(p) + 1
    done
  in
  let swap_candidates = Array.make max_swap_candidates 0 in
  (* LTS: move one critical task earlier on its PE. Returns true when a
     swap was accepted. *)
  let local_task_swapping () =
    let finish = Rebuild.kept_finish current in
    let critical = critical_of ctg ~deadlines finish in
    fill_by_pe ();
    let try_critical t1 =
      (* The non-critical tasks ranked before [t1] on its PE, the latest
         first, at most [max_swap_candidates]. *)
      let lo = pe_start.((Rebuild.kept_pe current).(t1)) in
      let count = ref 0 and j = ref (pe_index.(t1) - 1) in
      while !count < max_swap_candidates && !j >= lo do
        let t2 = by_pe.(!j) in
        if not critical.(t2) then begin
          swap_candidates.(!count) <- t2;
          incr count
        end;
        decr j
      done;
      let rec try_from c =
        c < !count
        &&
        let t2 = swap_candidates.(c) in
        try_apply
          ~restart:(fun inc -> Rebuild.swap_restart inc ~rank t1 t2)
          (fun () -> swap_ranks t1 t2)
          (fun () -> swap_ranks t1 t2)
        || try_from (c + 1)
      in
      try_from 0
    in
    List.exists try_critical (take max_critical_per_pass (ordered_critical ~finish critical))
  in
  (* GTM: migrate one critical task, cheapest destination first. *)
  let global_task_migration () =
    let finish = Rebuild.kept_finish current in
    let critical = critical_of ctg ~deadlines finish in
    let try_critical t1 =
      let home = assignment.(t1) in
      let ins, outs = incident_arcs t1 in
      let destinations =
        List.init n_pes Fun.id
        |> List.filter (fun k -> k <> home && Kernel.pe_alive kernel k)
        |> List.map (fun k ->
               (move_energy_arcs kernel ~assignment ~ins ~outs t1 k, k))
        |> List.sort (fun (e1, k1) (e2, k2) ->
               let c = Float.compare e1 e2 in
               if c <> 0 then c else Int.compare k1 k2)
        |> List.map snd
      in
      List.exists
        (fun k ->
          try_apply
            ~restart:(fun inc -> Rebuild.migration_restart inc t1)
            (fun () -> assignment.(t1) <- k)
            (fun () -> assignment.(t1) <- home))
        destinations
    in
    List.exists try_critical (take max_critical_per_pass (ordered_critical ~finish critical))
  in
  let lts_enabled = match moves with Both | Lts_only -> true | Gtm_only -> false in
  let gtm_enabled = match moves with Both | Gtm_only -> true | Lts_only -> false in
  let rec fix () =
    if fst !best_score > 0 && !evaluations < max_evaluations then
      if lts_enabled && local_task_swapping () then begin
        incr swaps;
        fix ()
      end
      else if gtm_enabled && global_task_migration () then begin
        incr migrations;
        fix ()
      end
      else ()
  in
  fix ();
  Noc_obs.Counters.add c_accepted_swaps !swaps;
  Noc_obs.Counters.add c_accepted_migrations !migrations;
  ( (if !accepted then Rebuild.kept_schedule (Lazy.force incumbent) current else schedule),
    { accepted_swaps = !swaps; accepted_migrations = !migrations; evaluations = !evaluations } )
