type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let next_raw t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 = next_raw

let split t =
  let seed64 = next_raw t in
  { state = seed64 }

(* Non-negative 62-bit value, uniform. OCaml's native int has 63 bits, so
   keeping 62 random bits guarantees a non-negative result. *)
let next_nonneg t = Int64.to_int (Int64.shift_right_logical (next_raw t) 2)

let int t ~bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let limit = max_int - (max_int mod bound) in
  let rec draw () =
    let v = next_nonneg t in
    if v < limit then v mod bound else draw ()
  in
  draw ()

let int_in t ~min ~max =
  assert (min <= max);
  min + int t ~bound:(max - min + 1)

let float t ~bound =
  assert (bound > 0. && Float.is_finite bound);
  let v = Int64.to_float (Int64.shift_right_logical (next_raw t) 11) in
  (* 53 significant bits, uniform in [0, 1). *)
  v /. 9007199254740992. *. bound

let float_in t ~min ~max =
  assert (min < max);
  min +. float t ~bound:(max -. min)

let bool t = Int64.logand (next_raw t) 1L = 1L

let gaussian t ~mean ~stddev =
  let rec nonzero () =
    let u = float t ~bound:1. in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t ~bound:1. in
  let r = sqrt (-2. *. log u1) in
  mean +. (stddev *. r *. cos (2. *. Float.pi *. u2))

let lognormal_factor t ~sigma = exp (gaussian t ~mean:0. ~stddev:sigma)

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t ~bound:(Array.length arr))

let sample_without_replacement t ~k ~n =
  assert (0 <= k && k <= n);
  (* Floyd's algorithm. *)
  let chosen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let r = int t ~bound:(j + 1) in
    if Hashtbl.mem chosen r then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen r ()
  done;
  Hashtbl.fold (fun i () acc -> i :: acc) chosen [] |> List.sort compare

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
