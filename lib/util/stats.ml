let sum arr = Array.fold_left ( +. ) 0. arr

let mean arr =
  assert (Array.length arr > 0);
  sum arr /. float_of_int (Array.length arr)

let variance arr =
  let m = mean arr in
  let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. arr in
  acc /. float_of_int (Array.length arr)

let stddev arr = sqrt (variance arr)

let min_value arr =
  assert (Array.length arr > 0);
  Array.fold_left Float.min arr.(0) arr

let max_value arr =
  assert (Array.length arr > 0);
  Array.fold_left Float.max arr.(0) arr

let argmin arr =
  assert (Array.length arr > 0);
  let best = ref 0 in
  for i = 1 to Array.length arr - 1 do
    if arr.(i) < arr.(!best) then best := i
  done;
  !best

(* Percentile with linear interpolation between closest ranks (the
   "exclusive of the extremes" convention is deliberately avoided so
   p=0 and p=100 are exactly the min and max). Sorts a copy: callers on
   hot paths should sort once and use [percentile_sorted]. *)
let percentile_sorted sorted ~p =
  assert (Array.length sorted > 0);
  if not (p >= 0. && p <= 100.) then
    invalid_arg "Stats.percentile: p must lie in [0, 100]";
  let n = Array.length sorted in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  let frac = rank -. Float.floor rank in
  (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

let percentile arr ~p =
  let sorted = Array.copy arr in
  Array.sort Float.compare sorted;
  percentile_sorted sorted ~p

let median arr = percentile arr ~p:50.

let fequal ?(eps = 1e-9) a b =
  let diff = Float.abs (a -. b) in
  diff <= eps || diff <= eps *. Float.max (Float.abs a) (Float.abs b)
