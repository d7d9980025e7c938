(* Host-speed calibration of the end-to-end timings.

   The benchmark host's speed drifts by tens of per cent over minutes
   (a shared machine: the same cat1-slack work ran at 19 000 and 33 000
   tasks/s in runs minutes apart), which would move every wall-clock
   figure between runs by more than any useful bound. Each run
   therefore also times a fixed reference kernel, interleaved with the
   work. The kernel shares no code with the program under test. It
   mixes two halves that slow down differently as the host drifts, so
   that together they follow both suites: an allocation-free heap sort
   and pointer chase, and a text split with float parsing, which
   allocates only short-lived values, so the program's data in the
   major heap does not move it. Over four minutes of drift, work time
   divided by the time of a kernel with this mix varied 5.2% (a
   cat1-slack pass) and 5.5% (a cat2-tight instance), against 11.3% and
   10.6% raw. End-to-end timings
   are reported scaled by [nominal_ms / median kernel time]: on a host
   where the kernel takes [nominal_ms] they are the raw wall times, and
   a change to the program moves them as it moves the raw times. *)

open Common

(* About the kernel's median time on the host the bounds were measured
   on. *)
let nominal_ms = 2.0

let sorted = 2048
let chased = 1 lsl 15
let keys = Array.make sorted 0.
let slots = Array.make chased 0

let text =
  let state = ref 12345 in
  String.concat " "
    (List.init 6000 (fun _ ->
         state := ((!state * 1103515245) + 12345) land 0x3fffffff;
         Printf.sprintf "%h" (float_of_int !state /. 3.)))

let kernel () =
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  for i = 0 to sorted - 1 do
    keys.(i) <- float_of_int (next ()) /. 7.
  done;
  Array.sort Float.compare keys;
  for i = 0 to chased - 1 do
    slots.(i) <- next () land (chased - 1)
  done;
  let at = ref 0 in
  for i = 1 to chased do
    at := (slots.(!at) + i) land (chased - 1)
  done;
  let parsed =
    List.fold_left (fun sum word -> sum +. float_of_string word) 0. (String.split_on_char ' ' text)
  in
  parsed +. keys.(sorted / 2) +. float_of_int !at

let probes = Samples.create ()

(* Times one kernel call into [samples]; returns its time, ms. *)
let probe_into samples =
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  let ms = ms_since t0 in
  Samples.add samples ms;
  ms

(* Times one kernel call; call it between rounds of work. *)
let probe () = probe_into probes

(* Host slowness relative to nominal: >1 on a slower host. *)
let slowdown () = Samples.median probes /. nominal_ms

(* [time x] and [rate r] scale a wall time and a rate to the nominal
   host. *)
let time x = x /. slowdown ()
let rate r = r *. slowdown ()

(* Set-up timing. Set-up work follows the host's speed more steeply
   than the reference kernel does: offline set-ups timed back to back at
   the start of a run all saw one host state, and their scaled median
   spread 11-18% (quartile distance over median) across runs. So the
   first set-up runs before the work, giving the run its input, and
   [setup_due] can spread the others over the run, between rounds of
   work; [setup_rest] runs any left. Each starts on a compacted heap and
   its input is released at once. Each is scaled by the median of three
   probes just before and three just after it. *)
type setup = {
  raw : Samples.t;  (** Wall time of each set-up, s. *)
  scaled : Samples.t;  (** The same, each scaled by its own probes. *)
  reps : int;
  seconds : float;  (** Round time of the run the set-ups are spread over. *)
  again : unit -> unit;  (** One more timed set-up, its input released. *)
}

let setups ~reps ~seconds ?(release = ignore) make =
  let raw = Samples.create () and scaled = Samples.create () in
  let local () =
    let p = Samples.create () in
    for _ = 1 to 3 do
      ignore (probe_into p)
    done;
    Samples.median p
  in
  let timed () =
    Gc.compact ();
    let before = local () in
    let t0 = now () in
    let input = make () in
    let s = now () -. t0 in
    let after = local () in
    Samples.add raw s;
    Samples.add scaled (s *. 2. *. nominal_ms /. (before +. after));
    input
  in
  let input = timed () in
  let again () =
    release (timed ());
    (* Its garbage is collected here, not inside the next timed round. *)
    Gc.full_major ()
  in
  (input, { raw; scaled; reps; seconds; again })

(* The [between] hook of [rounds_for]: the k-th further set-up runs at
   the first round boundary past k/reps of the run. *)
let setup_due s elapsed =
  let k = Samples.count s.raw in
  if k < s.reps && elapsed >= float_of_int k *. s.seconds /. float_of_int s.reps then s.again ()

(* After the run: the set-ups it ended before reaching. *)
let setup_rest s =
  while Samples.count s.raw < s.reps do
    s.again ()
  done

let describe ~setup =
  Printf.printf "  host: reference kernel p50 %.4f ms over %d probes, nominal %.1f ms; timings x %.4f\n"
    (Samples.median probes) (Samples.count probes) nominal_ms (1. /. slowdown ());
  Printf.printf "  set-up s: raw %s; scaled %s\n" (Samples.to_string setup.raw)
    (Samples.to_string setup.scaled)
