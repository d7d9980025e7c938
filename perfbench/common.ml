(* Measurement plumbing shared by every workload: wall clock, sample
   sets, output checks, metric records and the report printer. All
   times are host wall-clock time. *)

let now = Unix.gettimeofday

(* [ms_since t0] is the wall time elapsed since [t0], in milliseconds. *)
let ms_since t0 = (now () -. t0) *. 1000.

(* A growable set of float samples. *)
module Samples = struct
  type t = { mutable items : float list; mutable n : int }

  let create () = { items = []; n = 0 }

  let add t x =
    t.items <- x :: t.items;
    t.n <- t.n + 1

  let count t = t.n
  let total t = List.fold_left ( +. ) 0. t.items

  (* Linear-interpolated percentile, [0.] for an empty set (a layer the
     workload never called). *)
  let percentile t p =
    if t.n = 0 then 0. else Noc_util.Stats.percentile (Array.of_list t.items) ~p

  let median t = percentile t 50.

  (* The samples in the order they were added, for the report. *)
  let to_string t = String.concat " " (List.rev_map (Printf.sprintf "%.4g") t.items)
end

(* Output checks. Every failed check counts once against [failed] and
   is reported on stderr; the first few are printed in full. *)
module Checks = struct
  type t = { mutable attempted : int; mutable failed : int }

  let create () = { attempted = 0; failed = 0 }
  let attempt t = t.attempted <- t.attempted + 1

  let fail t msg =
    t.failed <- t.failed + 1;
    if t.failed <= 20 then prerr_endline ("perfbench: check failed: " ^ msg)
end

(* Runs whole rounds while the next one is predicted to end within
   [seconds] of round time (the last round's time as the prediction),
   and at least one; [stop] ends the run early. [between elapsed] runs
   before each round, given the round time so far; its own time is not
   counted. Returns the round time, s. *)
let rounds_for ?(stop = fun () -> false) ?(between = ignore) ~seconds round =
  let elapsed = ref 0. in
  let one () =
    between !elapsed;
    let t0 = now () in
    round ();
    let d = now () -. t0 in
    elapsed := !elapsed +. d;
    d
  in
  let rec go last = if (not (stop ())) && !elapsed +. last <= seconds then go (one ()) in
  go (one ());
  !elapsed

type metric = { name : string; unit : string; value : float; samples : int }

let metric ?(samples = 1) name unit value = { name; unit; value; samples }

(* A memory field of [/proc/PID/status] ([VmHWM] is the peak resident
   set, [VmRSS] the current one), in MB; [pid] defaults to this
   process. *)
let proc_status_mb ?pid field =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:(field ^ ":") line then
           Scanf.sscanf_opt line "%_s %d kB" (fun kb -> float_of_int kb /. 1024.)
         else None)
  |> function
  | Some mb -> mb
  | None -> failwith (Printf.sprintf "no %s in %s" field path)

(* Prints the metric table on stdout, then the one-line JSON
   result as the last line. *)
let report (checks : Checks.t) metrics =
  Printf.printf "  %-34s %16s %-8s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6g %-8s n=%d\n" m.name m.value m.unit m.samples)
    metrics;
  Printf.printf "  %d operations attempted, %d failed\n" checks.attempted checks.failed;
  let open Noc_obs.Json in
  let metric_json m = (m.name, Obj [ ("value", Number m.value); ("unit", String m.unit) ]) in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (checks.failed = 0));
            ("attempted", Number (float_of_int checks.attempted));
            ("failed", Number (float_of_int checks.failed));
            ("metrics", Obj (List.map metric_json metrics));
          ]))
