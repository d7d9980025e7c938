module List_sched = Noc_sched.List_sched
module Resource_state = Noc_sched.Resource_state
module Timeline = Noc_util.Timeline
module Counters = Noc_obs.Counters

let c_fik = Counters.counter "eas.finish_time.evaluations"
let c_fik_reused = Counters.counter "eas.finish_time.reused"
let c_energy = Counters.counter "eas.assignment_energy.evaluations"

(* Every per-candidate step below reads flat arrays and keeps its floats
   in local variables or array cells: under [-opaque] a float passed to
   or returned from another module is boxed, and Step 2 prices tens of
   thousands of (task, PE) candidates per run. *)
let run ~kernel ?pinned ?jobs:_ platform ctg (budget : Budget.t) =
  Kernel.check kernel ~caller:"Level_sched.run" platform ctg;
  let {
    Kernel.n_tasks = n;
    n_pes;
    tasks;
    releases;
    hops;
    ebits;
    link_bandwidth;
    router_latency;
    _;
  } =
    kernel
  in
  let alive = Array.init n_pes (Kernel.pe_alive kernel) in
  if not (Array.exists Fun.id alive) then invalid_arg "Level_sched.run: every PE is failed";
  (match pinned with
  | None -> ()
  | Some m ->
    if Array.length m <> n then
      invalid_arg "Level_sched.run: pinned length <> task count";
    Array.iter
      (fun k ->
        if k < 0 || k >= n_pes then
          invalid_arg "Level_sched.run: pinned PE out of range";
        if not alive.(k) then
          invalid_arg "Level_sched.run: pinned PE is failed")
      m);
  (* The allowed candidate set of task [i]: all alive PEs, or the single
     pinned one. *)
  let[@inline] allowed i k =
    alive.(k) && match pinned with None -> true | Some m -> m.(i) = k
  in
  let ls =
    List_sched.make ~comm_model:(Kernel.comm_model kernel)
      ?degraded:(Kernel.degraded kernel) platform ctg
  in
  let bd = budget.budgeted_deadlines in
  (* Per-(task, PE) state lives at [i * n_pes + k] of flat arrays. *)
  let size = n * n_pes in
  (* Once a task is ready its predecessors are all placed and never move
     again, so its assignment energies, the lower bounds of its F row
     and the set of tables its probes consult are fixed: compute them at
     most once per task. Each ready task also keeps its allowed PEs
     sorted by (energy, index) — the key of the reference's
     [List.sort compare] — in [order], so Rule 4 can find the cheapest
     members of its (shrinking) allowed set by walking a fixed order
     from the front. [order_len.(i)] is their count, [-1] until [i] is
     priced. *)
  let energy = Array.make size infinity in
  let order = Array.make size 0 in
  let order_len = Array.make n (-1) in
  (* Two-stage F(i,k) memo, revalidated by timeline versions.

     F(i,k) factors as [pe_gap(k, max(drt(i,k), release_i))]: the DRT
     stage ({!List_sched.data_ready}) reads only the link tables of
     [i]'s routes towards [k], the gap
     stage only PE [k]'s own table. Each stage is a pure function of its
     tables' busy sets, and during a run a table only gains intervals (a
     probe restores what it reserved), so a cached value whose recorded
     versions still match is exactly what a fresh probe would return.
     The stages invalidate very differently — a commit bumps one PE
     table (invalidating that column's gap stage across all ready
     tasks) but only the committed routes' link tables (leaving most
     DRT values intact) — so the common re-probe costs
     one binary search, not a communication re-schedule. This, not the
     dense matrices alone, is where the speedup lives.

     Each stage records one int: the DRT stage its tables' version sum
     ({!List_sched.data_ready_stamp}, [-1] before the first probe), the
     gap stage PE [k]'s version. *)
  let excluded = Array.make size false in
  let f = Array.make size infinity in
  let drt = Array.make size infinity in
  let drt_stamp = Array.make size (-1) in
  let pe_version = Array.make size (-1) in
  let pe_tables = Array.init n_pes (Resource_state.pe_table ls.state) in
  (* Both stages pass their floats through the partial schedule's
     window, so that none is boxed on the way. *)
  let window = ls.window in
  (* The counters, added locally and flushed once per run. *)
  let n_energy = ref 0 and n_fik = ref 0 and n_reused = ref 0 in
  (* Brings entry [idx] up to date, re-probing only the stages whose
     stamps moved, and returns whether both held (the memo was reused).
     A probe leaves every version as it found it, so the stamp read
     before it is the stamp of its value. *)
  let update idx =
    let i = idx / n_pes and k = idx mod n_pes in
    let stamp = List_sched.data_ready_stamp ls i k in
    let pe_table = pe_tables.(k) in
    let drt_held = stamp = drt_stamp.(idx) in
    if drt_held && pe_version.(idx) = Timeline.version pe_table then true
    else begin
      if not drt_held then begin
        incr n_fik;
        List_sched.data_ready ls i k;
        drt.(idx) <- window.(0);
        drt_stamp.(idx) <- stamp
      end;
      let d = drt.(idx) in
      f.(idx) <-
        (if d = infinity then infinity
         else begin
           let exec = tasks.(i).Noc_ctg.Task.exec_times.(k) in
           window.(0) <- Float.max d releases.(i);
           window.(1) <- exec;
           Resource_state.earliest_pe_gap ls.state ~pe:k window;
           window.(0) +. exec
         end);
      pe_version.(idx) <- Timeline.version pe_table;
      (* F only grows, so exceeding the budgeted deadline is permanent. *)
      if f.(idx) > bd.(i) then excluded.(idx) <- true;
      false
    end
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
  (* Prices a newly ready task: its energies, their order, and the
     lower-bound screen. The energy of running [i] on [k] is computation
     plus communication of the already-placed incoming arcs (paper
     footnote 2), in [Ctg.in_edges] order. A pair the fault set
     disconnects prices as [infinity] — never [bits *. infinity], which
     would be NaN for a zero-volume arc — so such a PE sorts last and can
     only be a Rule 4 member for a deadline-free task, which no generated
     graph produces. Each float expression is {!Kernel.comm_energy_inf}'s
     and {!Kernel.comm_duration}'s, in their operation order. *)
  let init i =
    if order_len.(i) < 0 then begin
      let base = i * n_pes in
      let task = tasks.(i) in
      let len = ref 0 in
      for k = 0 to n_pes - 1 do
        if allowed i k then begin
          incr n_energy;
          let comm = ref 0. in
          for j = ls.in_start.(i) to ls.in_start.(i + 1) - 1 do
            let pair = (ls.pe.(ls.pred.(j)) * n_pes) + k in
            comm :=
              !comm
              +. if hops.(pair) < 0 then infinity
                 else ls.volume.(ls.in_edge.(j)) *. ebits.(pair)
          done;
          let e = task.Noc_ctg.Task.energies.(k) +. !comm in
          energy.(base + k) <- e;
          (* [k] ascends, so an insertion after every cheaper or equal
             member sorts by (energy, index). *)
          let p = ref !len in
          while !p > 0 && energy.(base + order.(base + !p - 1)) > e do
            order.(base + !p) <- order.(base + !p - 1);
            decr p
          done;
          order.(base + !p) <- k;
          incr len
        end
      done;
      order_len.(i) <- !len;
      let bdi = bd.(i) in
      if bdi < infinity then
        for k = 0 to n_pes - 1 do
          if allowed i k then begin
            let lb_drt = ref 0. in
            for j = ls.in_start.(i) to ls.in_start.(i + 1) - 1 do
              let src = ls.pe.(ls.pred.(j)) and sent = ls.finish.(ls.pred.(j)) in
              let pair = (src * n_pes) + k in
              lb_drt :=
                if src = k then Float.max !lb_drt sent
                else if hops.(pair) < 0 then infinity
                else
                  Float.max !lb_drt
                    (sent
                    +. ((ls.volume.(ls.in_edge.(j)) /. link_bandwidth)
                       +. (float_of_int (hops.(pair) - 1) *. router_latency)))
            done;
            let lb =
              Float.max !lb_drt releases.(i) +. task.Noc_ctg.Task.exec_times.(k)
            in
            if lb > bdi then excluded.(base + k) <- true
          end
        done
    end
  in
  (* Refreshes every stale allowed entry of [i]'s F row. *)
  let exact_row i =
    let base = i * n_pes in
    for k = 0 to n_pes - 1 do
      if allowed i k then ignore (update (base + k))
    done
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
    let len = order_len.(i) in
    let m1 = ref (-1) and m2 = ref (-1) in
    let j = ref 0 in
    while !m2 < 0 && !j < len do
      let k = order.(base + !j) in
      let idx = base + k in
      if not excluded.(idx) then begin
        if update idx then incr n_reused;
        if not excluded.(idx) then if !m1 < 0 then m1 := k else m2 := k
      end;
      incr j
    done;
    walk_pe.(i) <- !m1;
    walk_regret.(i) <-
      (if !m1 < 0 then nan
       else if !m2 < 0 then infinity
       else energy.(base + !m2) -. energy.(base + !m1))
  in
  (* The Ready Tasks List, [ready.(0 .. n_ready - 1)], in the order the
     reference's list keeps: the chosen task leaves it, and successors
     whose last predecessor it was join at the end in [Ctg.succs]
     order. *)
  let unscheduled_preds = Array.init n (fun i -> ls.in_start.(i + 1) - ls.in_start.(i)) in
  let ready = Array.make n 0 and n_ready = ref 0 in
  for i = 0 to n - 1 do
    if unscheduled_preds.(i) = 0 then begin
      ready.(!n_ready) <- i;
      incr n_ready
    end
  done;
  let place_all () =
    for _ = 1 to n do
      assert (!n_ready > 0);
      for r = 0 to !n_ready - 1 do
        init ready.(r)
      done;
      if not screening then
        (* The decision log records whole F rows: keep every entry of
           every ready row exact while the log is live. *)
        for r = 0 to !n_ready - 1 do
          exact_row ready.(r)
        done;
      for r = 0 to !n_ready - 1 do
        walk ready.(r)
      done;
      (* Rule 3: a task whose walk found no member has every PE priced
         out, so it violates for sure. The worst violator (the first on
         ties) goes to its fastest PE, so its row must be exact.
         Disallowed entries stay [infinity] and never win. *)
      let worst = ref (-1) and worst_over = ref 0. in
      for r = 0 to !n_ready - 1 do
        let i = ready.(r) in
        if walk_pe.(i) < 0 then begin
          exact_row i;
          let base = i * n_pes in
          let m = ref f.(base) in
          for k = 1 to n_pes - 1 do
            m := Float.min !m f.(base + k)
          done;
          let over = !m -. bd.(i) in
          if !worst < 0 || over > !worst_over then begin
            worst := i;
            worst_over := over
          end
        end
      done;
      let violated = !worst >= 0 in
      let chosen_task =
        if violated then !worst
        else begin
          (* Rule 4: the largest energy regret (the first on ties). *)
          let best = ref ready.(0) in
          for r = 1 to !n_ready - 1 do
            let i = ready.(r) in
            if walk_regret.(i) > walk_regret.(!best) then best := i
          done;
          !best
        end
      in
      let chosen_pe =
        if not violated then walk_pe.(chosen_task)
        else begin
          (* Rule 3 sends the violator to its fastest PE (the first on
             ties). *)
          let base = chosen_task * n_pes in
          let k = ref 0 in
          for k' = 1 to n_pes - 1 do
            if f.(base + k') < f.(base + !k) then k := k'
          done;
          if f.(base + !k) = infinity then
            invalid_arg "Level_sched.run: task unschedulable on the degraded platform";
          !k
        end
      in
      if Noc_obs.Decisions.is_enabled () then
        Noc_obs.Decisions.record ~task:chosen_task
          ~rule:(if violated then "deadline" else "regret")
          ~chosen:chosen_pe ~budgeted_deadline:bd.(chosen_task)
          ~finishes:(Array.sub f (chosen_task * n_pes) n_pes);
      (* Placing is the only net writer of the tables: its reservations
         bump the mutated timelines' versions and thereby invalidate
         exactly the cached F(i,k) values those tables fed. *)
      List_sched.place ls chosen_task chosen_pe;
      let r = ref 0 in
      while ready.(!r) <> chosen_task do
        incr r
      done;
      Array.blit ready (!r + 1) ready !r (!n_ready - !r - 1);
      decr n_ready;
      for j = ls.succ_start.(chosen_task) to ls.succ_start.(chosen_task + 1) - 1 do
        let s = ls.succ.(j) in
        unscheduled_preds.(s) <- unscheduled_preds.(s) - 1;
        if unscheduled_preds.(s) = 0 then begin
          ready.(!n_ready) <- s;
          incr n_ready
        end
      done
    done
  in
  Fun.protect place_all ~finally:(fun () ->
      Counters.add c_energy !n_energy;
      Counters.add c_fik !n_fik;
      Counters.add c_fik_reused !n_reused);
  List_sched.schedule ls
