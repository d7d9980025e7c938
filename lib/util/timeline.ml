(* Indexed schedule table: the busy set lives in a pair of parallel
   float arrays (starts, stops) sorted by start, with [len] live slots.
   Disjointness makes the stop sequence sorted too, so both endpoints
   admit binary search. Every search for the slot a time falls in first
   checks the last slot: the scheduler mostly reserves at or after the
   end of the table, so that check answers most queries in O(1), and an
   insert there shifts nothing (amortized O(1) growth). Mid-table
   inserts and releases shift the slots after them with a plain loop
   (no C call for the few slots a scheduler's table moves). Windows that
   cross the module boundary travel in float arrays: under [-opaque]
   every float argument or result of a call into another module is
   boxed. *)

type t = {
  mutable starts : float array;
  mutable stops : float array;
  mutable len : int;
}

let create () = { starts = [||]; stops = [||]; len = 0 }

let version t = t.len

let busy t =
  List.init t.len (fun i -> Interval.make ~start:t.starts.(i) ~stop:t.stops.(i))

(* First index whose slot ends strictly after [x] (slots ending at or
   before [x] cannot constrain anything at or after it), or [len].
   A time at or after the last stop, the common case, answers from that
   one slot; otherwise the last slot is the upper bound of a binary
   search. Inlined so the float argument is never boxed on the hot
   paths. *)
let[@inline] first_stop_after t x =
  let last = t.len - 1 in
  if last < 0 || t.stops.(last) <= x then t.len
  else begin
    let lo = ref 0 and hi = ref last in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.stops.(mid) > x then hi := mid else lo := mid + 1
    done;
    !lo
  end

let is_free t (iv : Interval.t) =
  Interval.is_empty iv
  ||
  let i = first_stop_after t iv.Interval.start in
  i >= t.len || t.starts.(i) >= iv.Interval.stop

let[@inline] gap t after duration =
  assert (duration >= 0.);
  if duration = 0. then after
  else begin
    let candidate = ref after in
    let i = ref (first_stop_after t after) in
    let continue = ref true in
    while !continue && !i < t.len do
      if !candidate +. duration <= t.starts.(!i) then continue := false
      else begin
        if t.stops.(!i) > !candidate then candidate := t.stops.(!i);
        incr i
      end
    done;
    !candidate
  end

let earliest_gap t ~after ~duration = gap t after duration
let earliest_gap_window t window = window.(0) <- gap t window.(0) window.(1)

let ensure_capacity t n =
  let cap = Array.length t.starts in
  if n > cap then begin
    let cap' = Int.max n (Int.max 8 (2 * cap)) in
    let starts = Array.make cap' 0. and stops = Array.make cap' 0. in
    Array.blit t.starts 0 starts 0 t.len;
    Array.blit t.stops 0 stops 0 t.len;
    t.starts <- starts;
    t.stops <- stops
  end

let overlap_error t i ~start ~stop =
  invalid_arg
    (Format.asprintf "Timeline.reserve: %a overlaps %a" Interval.pp
       (Interval.make ~start ~stop) Interval.pp
       (Interval.make ~start:t.starts.(i) ~stop:t.stops.(i)))

(* Inserts [start, stop) at index [i], which must be [first_stop_after
   t start]: every slot before [i] ends at or before [start], so slot
   [i] is the only candidate overlap. *)
let[@inline] insert t i ~start ~stop =
  if i < t.len && t.starts.(i) < stop then overlap_error t i ~start ~stop;
  if t.len = Array.length t.starts then ensure_capacity t (t.len + 1);
  for j = t.len downto i + 1 do
    t.starts.(j) <- t.starts.(j - 1);
    t.stops.(j) <- t.stops.(j - 1)
  done;
  t.starts.(i) <- start;
  t.stops.(i) <- stop;
  t.len <- t.len + 1

let reserve t (iv : Interval.t) =
  if not (Interval.is_empty iv) then
    insert t (first_stop_after t iv.Interval.start) ~start:iv.Interval.start
      ~stop:iv.Interval.stop

let slot t start = first_stop_after t start

(* Whether the non-empty [start, stop) can take slot index [i]: [i] is
   its insertion point and overlaps nothing. Once every slot before [i]
   ends at or before [start], slot [i] is the only candidate overlap. *)
let[@inline] fits t i ~start ~stop =
  start < stop && i >= 0 && i <= t.len
  && (i = 0 || t.stops.(i - 1) <= start)
  && (i = t.len || t.starts.(i) >= stop)

(* Whether slot [i] holds exactly [start, stop). *)
let[@inline] holds t i ~start ~stop =
  i >= 0 && i < t.len && t.starts.(i) = start && t.stops.(i) = stop

(* Removes slot [i]. Rollbacks release newest-first, so the slot is
   often the last one and the loop shifts nothing. *)
let[@inline] remove t i =
  for j = i to t.len - 2 do
    t.starts.(j) <- t.starts.(j + 1);
    t.stops.(j) <- t.stops.(j + 1)
  done;
  t.len <- t.len - 1

let reserve_slots tls ~ids ~slots ~starts ~stops lo hi =
  let d = ref lo and ok = ref true in
  while !ok && !d < hi do
    let tl = tls.(ids.(!d)) and i = slots.(!d) in
    let start = starts.(!d) and stop = stops.(!d) in
    if fits tl i ~start ~stop then begin
      insert tl i ~start ~stop;
      incr d
    end
    else ok := false
  done;
  !d

let release_slots tls ~ids ~slots ~starts ~stops lo hi =
  let d = ref (hi - 1) and ok = ref true in
  while !ok && !d >= lo do
    let tl = tls.(ids.(!d)) and i = slots.(!d) in
    if holds tl i ~start:starts.(!d) ~stop:stops.(!d) then begin
      remove tl i;
      decr d
    end
    else ok := false
  done;
  !d + 1

let utilisation t ~horizon =
  assert (horizon > 0.);
  let covered = ref 0. in
  for i = 0 to t.len - 1 do
    let start = Float.min t.starts.(i) horizon in
    let stop = Float.min t.stops.(i) horizon in
    covered := !covered +. Float.max 0. (stop -. start)
  done;
  !covered /. horizon

let span t = if t.len = 0 then 0. else t.stops.(t.len - 1)

let merged_busy tls ~after =
  let total =
    List.fold_left (fun acc tl -> acc + (tl.len - first_stop_after tl after)) 0 tls
  in
  let slots = Array.make (Int.max total 1) (0., 0.) in
  let k = ref 0 in
  List.iter
    (fun tl ->
      for i = first_stop_after tl after to tl.len - 1 do
        slots.(!k) <- (tl.starts.(i), tl.stops.(i));
        incr k
      done)
    tls;
  let slots = if total = Array.length slots then slots else Array.sub slots 0 total in
  Array.sort
    (fun (sa, ea) (sb, eb) ->
      let c = Float.compare sa sb in
      if c <> 0 then c else Float.compare ea eb)
    slots;
  (* Coalesce with an accumulator (tail position throughout): a merged
     table can hold every slot of every link, so recursion depth must not
     scale with it. *)
  let coalesced =
    Array.fold_left
      (fun acc (s, e) ->
        match acc with
        | (cs, ce) :: rest when s <= ce ->
          if e > ce then (cs, e) :: rest else acc
        | _ -> (s, e) :: acc)
      [] slots
  in
  List.rev_map (fun (s, e) -> Interval.make ~start:s ~stop:e) coalesced

(* [gallop t lo x] is [first_stop_after t x] for a caller that knows no
   slot before [lo] ends after [x]: doubling steps from [lo] bracket the
   answer, then a binary search inside the bracket finds it, in
   O(log (answer - lo)). *)
let[@inline] gallop t lo x =
  if lo >= t.len || t.stops.(lo) > x then lo
  else begin
    (* [stops.(!base) <= x] throughout. *)
    let base = ref lo and step = ref 1 in
    while !base + !step < t.len && t.stops.(!base + !step) <= x do
      base := !base + !step;
      step := 2 * !step
    done;
    let lo = ref (!base + 1) and hi = ref (Int.min (!base + !step) t.len) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.stops.(mid) > x then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* Candidate advance: probe the tables round-robin for a slot
   overlapping [candidate, candidate + duration); a hit pushes the
   candidate to that slot's stop. The candidate is the answer once [n]
   probes in a row leave it in place, one per table. Each advance
   retires at least one slot of one table for good, so the loop does
   O(total slots) probes worst case, and it ends [n] probes after the
   last advance, where finishing the round and then probing a whole
   clean one took up to [2n - 1]. The candidate only grows, so a table's insertion point only
   moves right: each table's first probe is a binary search and later
   ones gallop from its last index, and [at] ends up holding each
   table's insertion point for the answer. *)
let[@inline] gap_multi tls at ~after ~duration =
  let n = Array.length tls in
  let candidate = ref after in
  let clean = ref 0 and k = ref 0 and probes = ref 0 in
  while !clean < n do
    let tl = tls.(!k) in
    let i =
      if !probes >= n then gallop tl at.(!k) !candidate
      else first_stop_after tl !candidate
    in
    at.(!k) <- i;
    if i < tl.len && tl.starts.(i) < !candidate +. duration then begin
      candidate := tl.stops.(i);
      clean := 0
    end
    else incr clean;
    incr probes;
    k := if !k = n - 1 then 0 else !k + 1
  done;
  !candidate

let reserve_gap_multi tls slots window =
  let after = window.(0) and duration = window.(1) in
  assert (duration >= 0.);
  if duration <> 0. then begin
    let start = gap_multi tls slots ~after ~duration in
    let stop = start +. duration in
    (* As [reserve], an empty window (a duration lost to rounding)
       reserves nothing. *)
    if start <> stop then
      for k = 0 to Array.length tls - 1 do
        insert tls.(k) slots.(k) ~start ~stop
      done;
    window.(0) <- start
  end
