module List_sched = Noc_sched.List_sched
module Resource_state = Noc_sched.Resource_state
module Timeline = Noc_util.Timeline

let c_fik = Noc_obs.Counters.counter "eas.finish_time.evaluations"
let c_fik_reused = Noc_obs.Counters.counter "eas.finish_time.reused"
let c_energy = Noc_obs.Counters.counter "eas.assignment_energy.evaluations"

(* Energy of running [i] on [k]: computation plus communication of the
   already-placed incoming arcs (paper footnote 2), priced from the
   kernel matrices. Bit-identical to the reference's per-call platform
   queries: the kernel stores the very floats those queries return. A
   pair the fault set disconnects prices as [infinity] instead of
   raising — such a PE sorts last in the candidate order and can only
   be a Rule 4 member for a deadline-free task, which no generated
   graph produces. *)
let assignment_energy kernel (ls : List_sched.t) i k =
  let comm =
    List.fold_left
      (fun acc (e : Noc_ctg.Edge.t) ->
        acc +. Kernel.comm_energy_inf kernel ~src:ls.pe.(e.src) ~dst:k ~bits:e.volume)
      0.
      (Noc_ctg.Ctg.in_edges ls.ctg i)
  in
  Kernel.exec_energy kernel ~task:i ~pe:k +. comm

let run ~kernel ?pinned ?jobs:_ platform ctg (budget : Budget.t) =
  Kernel.check kernel ~caller:"Level_sched.run" platform ctg;
  let n = Kernel.n_tasks kernel in
  let n_pes = Kernel.n_pes kernel in
  let pe_alive = Kernel.pe_alive kernel in
  if not (List.exists pe_alive (List.init n_pes Fun.id)) then
    invalid_arg "Level_sched.run: every PE is failed";
  (match pinned with
  | None -> ()
  | Some m ->
    if Array.length m <> n then
      invalid_arg "Level_sched.run: pinned length <> task count";
    Array.iter
      (fun k ->
        if k < 0 || k >= n_pes then
          invalid_arg "Level_sched.run: pinned PE out of range";
        if not (pe_alive k) then
          invalid_arg "Level_sched.run: pinned PE is failed")
      m);
  (* The allowed candidate set of task [i]: all alive PEs, or the single
     pinned one. With [pinned = None] this is [pe_alive] exactly, so the
     unpinned path is untouched. *)
  let allowed =
    match pinned with
    | None -> fun _ k -> pe_alive k
    | Some m -> fun i k -> pe_alive k && m.(i) = k
  in
  let ls =
    List_sched.make ~comm_model:(Kernel.comm_model kernel)
      ?degraded:(Kernel.degraded kernel) platform ctg
  in
  let unscheduled_preds = Array.init n (fun i -> List.length (Noc_ctg.Ctg.preds ctg i)) in
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if unscheduled_preds.(i) = 0 then ready := i :: !ready
  done;
  (* Once a task is ready its predecessors are all placed and never move
     again, so its assignment energies and the set of tables its probes
     consult are fixed: compute them at most once per task. Each ready
     task also keeps its alive PEs sorted by (energy, index) — the key of
     the reference's [List.sort compare] — so Rule 4 can find the
     cheapest members of its (shrinking) allowed set by walking a fixed
     order from the front. *)
  let energy_of = Array.make n [||] in
  let energy_order = Array.make n [||] in
  let init_energy i =
    if energy_of.(i) == [||] then begin
      let row = Array.make n_pes infinity in
      let order = ref [] in
      for k = n_pes - 1 downto 0 do
        if allowed i k then begin
          Noc_obs.Counters.incr c_energy;
          row.(k) <- assignment_energy kernel ls i k;
          order := (row.(k), k) :: !order
        end
      done;
      energy_of.(i) <- row;
      energy_order.(i) <- Array.of_list (List.map snd (List.sort compare !order))
    end
  in
  (* Two-stage F(i,k) memo, revalidated by timeline versions.

     F(i,k) factors as [pe_gap(k, max(drt(i,k), release_i))]: the DRT
     stage ({!List_sched.data_ready}) reads only the link tables of
     [i]'s routes towards [k] ({!List_sched.data_ready_tables}), the gap
     stage only PE [k]'s own table. Each stage is a pure function of its
     tables' busy sets, and during a run a table only gains intervals (a
     probe restores what it reserved), so a cached value whose recorded
     versions still match is exactly what a fresh probe would return.
     The stages invalidate very differently — a commit bumps one PE
     table (invalidating that column's gap stage across all ready
     tasks) but only the committed routes' link tables (leaving most
     DRT values intact) — so the common re-probe costs
     one binary search, not a communication re-schedule. This, not the
     dense matrices alone, is where the speedup lives. *)
  let bd i = budget.budgeted_deadlines.(i) in
  let excluded = Array.make (n * n_pes) false in
  let f = Array.make (n * n_pes) infinity in
  let drt = Array.make (n * n_pes) infinity in
  let drt_deps : (Timeline.t array * int array) option array =
    Array.make (n * n_pes) None
  in
  let pe_version = Array.make (n * n_pes) (-1) in
  let drt_valid idx =
    match drt_deps.(idx) with
    | None -> false
    | Some (tables, versions) ->
      let ok = ref true in
      Array.iteri
        (fun j tl -> if Timeline.version tl <> versions.(j) then ok := false)
        tables;
      !ok
  in
  let valid idx =
    pe_version.(idx) = Timeline.version (Resource_state.pe_table ls.state (idx mod n_pes))
    && drt_valid idx
  in
  let refresh idx =
    let i = idx / n_pes and k = idx mod n_pes in
    if not (drt_valid idx) then begin
      Noc_obs.Counters.incr c_fik;
      drt.(idx) <- List_sched.data_ready ls i k;
      match drt_deps.(idx) with
      | Some (tables, versions) ->
        Array.iteri (fun j tl -> versions.(j) <- Timeline.version tl) tables
      | None ->
        let tables = List_sched.data_ready_tables ls i k in
        drt_deps.(idx) <- Some (tables, Array.map Timeline.version tables)
    end;
    let pe_table = Resource_state.pe_table ls.state k in
    let d = drt.(idx) in
    f.(idx) <-
      (if d = infinity then infinity
       else begin
         let exec = Kernel.exec_time kernel ~task:i ~pe:k in
         let ready = Float.max d (Kernel.release kernel i) in
         let start = Timeline.earliest_gap pe_table ~after:ready ~duration:exec in
         start +. exec
       end);
    pe_version.(idx) <- Timeline.version pe_table;
    (* F only grows, so exceeding the budgeted deadline is permanent. *)
    if f.(idx) > bd i then excluded.(idx) <- true
  in
  (* Monotone screening. During a run the resource timelines only gain
     reservations, and every stage of F(i,k) — transaction starts, DRT,
     the PE gap — is non-decreasing in the busy sets it queries, so
     F(i,k) never decreases across iterations. Two exact consequences:

     - once a probe returns F(i,k) > BD_i, PE [k] is priced out of [i]'s
       allowed set {e permanently}: the entry never needs re-probing to
       decide membership again;
     - the static contention-free bound
         max(max_p(sender_finish_p + duration(src_p, k)), release_i) + exec
       is a lower bound on every future F(i,k) (contention and busy PEs
       only delay), so a pair whose bound already exceeds BD_i is priced
       out before its first probe.

     The reference's violator test [min_k F(i,k) > BD_i] becomes "every
     candidate is priced out" — excluded entries all have F > BD_i by
     monotonicity, non-excluded ones are exact and <= BD_i. Violators are
     rare; only they pay for an exact full row (Rule 3 ranks violators by
     margin and needs the true minimum). One caveat: the decision log
     records whole F rows, and screening leaves excluded entries stale —
     so while the log is live we keep refreshing every entry (placements
     are identical either way; only the probe count differs). *)
  let screening = not (Noc_obs.Decisions.is_enabled ()) in
  let row_init = Array.make n false in
  let init_row i =
    if not row_init.(i) then begin
      row_init.(i) <- true;
      let bdi = bd i in
      if bdi < infinity then begin
        for k = 0 to n_pes - 1 do
          if allowed i k then begin
            let lb_drt = ref 0. in
            for j = ls.in_start.(i) to ls.in_start.(i + 1) - 1 do
              let src = ls.pe.(ls.pred.(j)) and sent = ls.finish.(ls.pred.(j)) in
              lb_drt :=
                if src = k then Float.max !lb_drt sent
                else if not (Kernel.reachable kernel ~src ~dst:k) then infinity
                else
                  Float.max !lb_drt
                    (sent
                    +. Kernel.comm_duration kernel ~src ~dst:k
                         ~bits:ls.volume.(ls.in_edge.(j)))
            done;
            let lb =
              Float.max !lb_drt (Kernel.release kernel i)
              +. Kernel.exec_time kernel ~task:i ~pe:k
            in
            if lb > bdi then excluded.((i * n_pes) + k) <- true
          end
        done
      end
    end
  in
  (* Rule 4 needs, per ready task, only the identity of the cheapest
     member of its allowed set and the energy gap to the second
     cheapest: F values beyond set membership are irrelevant, membership
     only shrinks (F grows monotonically), and the energies ordering the
     candidates are static. So each iteration walks the task's energy
     order from the front and probes just far enough to certify the
     first two current members — for a typical task two version checks
     and no probe at all, instead of a whole row of probes. The member
     subsequence of the walk order is exactly the reference's sorted
     allowed list, so the (best PE, regret) pair is unchanged bit for
     bit. An empty walk means every PE is priced out: the task violates
     for certain, and only then is its exact full row materialised (for
     Rule 3's margins). *)
  let walk_pe = Array.make n (-1) in
  let walk_regret = Array.make n nan in
  let walk i =
    let base = i * n_pes in
    let order = energy_order.(i) in
    let len = Array.length order in
    let m1 = ref (-1) and m2 = ref (-1) in
    let j = ref 0 in
    while !m2 < 0 && !j < len do
      let k = order.(!j) in
      let idx = base + k in
      if not excluded.(idx) then begin
        if valid idx then Noc_obs.Counters.incr c_fik_reused else refresh idx;
        if not excluded.(idx) then
          if !m1 < 0 then m1 := k else m2 := k
      end;
      incr j
    done;
    walk_pe.(i) <- !m1;
    walk_regret.(i) <-
      (if !m1 < 0 then nan
       else if !m2 < 0 then infinity
       else energy_of.(i).(!m2) -. energy_of.(i).(!m1))
  in
  let remaining = ref n in
  while !remaining > 0 do
    let rtl = !ready in
    assert (rtl <> []);
    List.iter
      (fun i ->
        init_energy i;
        init_row i)
      rtl;
    if not screening then
      (* The decision log records whole F rows: keep every entry of
         every ready row exact while the log is live. *)
      List.iter
        (fun i ->
          for k = 0 to n_pes - 1 do
            let idx = (i * n_pes) + k in
            if allowed i k && not (valid idx) then refresh idx
          done)
        rtl;
    List.iter walk rtl;
    let violators =
      List.filter_map
        (fun i ->
          if walk_pe.(i) >= 0 then None
          else begin
            let base = i * n_pes in
            (* Every PE is priced out, so [i] violates for sure; Rule 3
               ranks violators by margin and sends the worst to its
               fastest PE, so this (rare) row must be exact. *)
            for k = 0 to n_pes - 1 do
              if allowed i k && not (valid (base + k)) then refresh (base + k)
            done;
            (* Disallowed entries stay [infinity] and never win the
               argmin below. *)
            let m = ref f.(base) in
            for k = 1 to n_pes - 1 do
              m := Float.min !m f.(base + k)
            done;
            Some (i, !m -. bd i)
          end)
        rtl
    in
    let chosen_task, chosen_pe, chosen_rule =
      match violators with
      | _ :: _ ->
        (* Rule 3: the worst violator goes to its fastest PE. *)
        let i, _ =
          List.fold_left
            (fun (bi, bover) (i, over) ->
              if over > bover then (i, over) else (bi, bover))
            (List.hd violators) (List.tl violators)
        in
        let k = Noc_util.Stats.argmin (Array.sub f (i * n_pes) n_pes) in
        if f.((i * n_pes) + k) = infinity then
          invalid_arg "Level_sched.run: task unschedulable on the degraded platform";
        (i, k, "deadline")
      | [] ->
        (* Rule 4: largest energy regret among deadline-respecting PEs. *)
        let i, k, _ =
          List.fold_left
            (fun (bi, bk, bdelta) i ->
              let delta = walk_regret.(i) in
              if bk < 0 || delta > bdelta then (i, walk_pe.(i), delta)
              else (bi, bk, bdelta))
            (-1, -1, nan) rtl
        in
        (i, k, "regret")
    in
    if Noc_obs.Decisions.is_enabled () then
      Noc_obs.Decisions.record ~task:chosen_task ~rule:chosen_rule ~chosen:chosen_pe
        ~budgeted_deadline:(bd chosen_task)
        ~finishes:(Array.sub f (chosen_task * n_pes) n_pes);
    (* Placing is the only net writer of the tables: its reservations
       bump the mutated timelines' versions and thereby invalidate
       exactly the cached F(i,k) values those tables fed. *)
    List_sched.place ls chosen_task chosen_pe;
    decr remaining;
    ready := List.filter (fun i -> i <> chosen_task) !ready;
    List.iter
      (fun j ->
        unscheduled_preds.(j) <- unscheduled_preds.(j) - 1;
        if unscheduled_preds.(j) = 0 then ready := !ready @ [ j ])
      (Noc_ctg.Ctg.succs ctg chosen_task)
  done;
  List_sched.schedule ls
