(* serve-mix: a request stream sent by one closed-loop client, over one
   connection, to a real `nocsched serve` daemon (serial, the default
   64-entry caches). Requests come in blocks of 200 holding each class
   at its exact share.

   The mix is an assumption. No measured or published serve traffic
   exists for this program, so every number below was chosen to meet a
   requirement of the benchmark, not taken from a trace; the aggregate
   req_per_s and latencies weigh the classes by these shares, so claims
   about serve belong to the per-class metrics. Replace the shares
   once a measured mix is committed. Per block of 200:
   - schedule of a popular graph (160, 80%): hits must dominate the
     median. 96 graphs of 40-100 tasks, half again the 64-entry caches,
     drawn with a u^4 skew (the first third of the set takes 76% of the
     draws), so hits, misses and evictions all occur; labelled hit or
     miss by the reply;
   - schedule of a fresh graph (8, 4%): cold misses of 60-200 tasks,
     round-robin through a pool of 40, each evicted long before it
     returns; each block's eight span the sizes;
   - schedule with dvfs of a popular graph (8, 4%);
   - reschedule of a popular graph with one PE failed (4, 2%),
     round-robin through 20 popular graphs spread over their sizes,
     each block's four spanning them;
   - simulate of a popular graph (8, 4%);
   - an infeasible graph (3, 1.5%): a small refused share, 40 tasks at
     tightness 0.5, round-robin through a pool of 5, refused after
     capped repair and never cached, so every retry recomputes;
   - a malformed line (6, 3%), refused;
   - stats (3, 1.5%).
   The minor classes are sized so that each still gets dozens of
   samples in the traced half of a 30 s run. Every window of five
   blocks (1000 requests) then holds the same requests but for its
   popular draws: each fresh and reschedule graph once and each
   infeasible graph three times. Reschedules (up to 570 ms) and refusals
   (50-300 ms) are its slowest requests, so latency_p99_ms, taken over
   the complete windows, does not move with which of them a run's
   windows happened to hold. Popular graphs have tightness 3.0 (feasible
   with little repair), fresh ones 2.5 (category I's).

   The graphs come from the suite number (0 by default; another suite
   is a held-out set), the order of each block and the popular draws
   from the seed. Graph sizes follow fixed ladders, so every suite has
   the same size mix. *)

open Common
module Json = Noc_obs.Json
module Protocol = Noc_serve.Protocol

type cls = Popular | Fresh | Dvfs | Reschedule | Simulate | Infeasible | Malformed | Stats

let shares =
  [
    (Popular, 160);
    (Fresh, 8);
    (Dvfs, 8);
    (Reschedule, 4);
    (Simulate, 8);
    (Infeasible, 3);
    (Malformed, 6);
    (Stats, 3);
  ]

type graph = { text : string; tasks : int; deadline_tasks : int }

type pools = {
  popular : graph array;
  fresh : graph array;
  infeasible : graph array;
  (* Prebuilt request lines, so the timed loop only sends. *)
  schedule_lines : string array;  (** Per popular graph. *)
  dvfs_lines : string array;
  reschedule_lines : string array;
  simulate_lines : string array;
  fresh_lines : string array;
  infeasible_lines : string array;
  malformed_lines : string array;
  warmup_line : string;
}

let mesh = (4, 4)

let generate ~platform ~seed ~tasks ~tightness =
  let params =
    {
      (Noc_tgff.Category.params Noc_tgff.Category.Category_i) with
      Noc_tgff.Params.n_tasks = tasks;
      deadline_tightness = tightness;
    }
  in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed in
  {
    text = Noc_ctg.Ctg_io.to_string ctg;
    tasks = Noc_ctg.Ctg.n_tasks ctg;
    deadline_tasks = List.length (Noc_ctg.Ctg.deadline_tasks ctg);
  }

(* [ladder lo hi n i] spreads [n] sizes evenly over [lo, hi]. *)
let ladder lo hi n i = lo + ((hi - lo) * i / max 1 (n - 1))

(* [spread ~per n k] orders [0 .. n-1] so that every [per] consecutive
   [k] from a multiple of [per] span the range evenly, when [per]
   divides [n]. Round-robin pools in this order give every block the
   same mix of sizes. *)
let spread ~per n k = if n mod per = 0 then (k mod per * (n / per)) + (k / per) else k

let share cls = List.assoc cls shares

(* Blocks per window of 1000 requests, the unit that repeats: the
   round-robin pools are sized so that every window sends the same
   requests but for its popular draws. *)
let window_blocks = 5

let schedule_line ?dvfs g =
  Protocol.request_to_line
    (Protocol.Schedule { ctg_text = g.text; mesh; algo = Noc_experiments.Runner.Eas; decisions = false; dvfs })

let make_pools ~quick ~suite =
  let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
  let n_popular, n_fresh, n_infeasible = if quick then (8, 4, 2) else (96, 40, 5) in
  let scale n = if quick then max 8 (n / 8) else n in
  (* Graph seeds are disjoint per class and per suite. *)
  let gseed cls i = (suite * 100_000) + (cls * 10_000) + i in
  let popular =
    Array.init n_popular (fun i ->
        generate ~platform ~seed:(gseed 1 i) ~tasks:(scale (ladder 40 100 n_popular i))
          ~tightness:3.0)
  in
  let fresh =
    Array.init n_fresh (fun i ->
        generate ~platform ~seed:(gseed 2 i)
          ~tasks:(scale (ladder 60 200 n_fresh (spread ~per:(share Fresh) n_fresh i)))
          ~tightness:2.5)
  in
  let infeasible =
    Array.init n_infeasible (fun i ->
        generate ~platform ~seed:(gseed 3 i) ~tasks:(scale 40) ~tightness:0.5)
  in
  let faults i = [ Printf.sprintf "pe:%d" (i mod 16) ] in
  let algo = Noc_experiments.Runner.Eas in
  let line r = Protocol.request_to_line r in
  (* A graph for 4 PEs sent to the 16-PE mesh: well-formed, but refused. *)
  let small_platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:2 ~rows:2 () in
  let wrong_pes = generate ~platform:small_platform ~seed:(gseed 4 0) ~tasks:10 ~tightness:3.0 in
  {
    popular;
    fresh;
    infeasible;
    schedule_lines = Array.map schedule_line popular;
    dvfs_lines = Array.map (schedule_line ~dvfs:Noc_dvfs.Vf_table.default) popular;
    reschedule_lines =
      Array.mapi
        (fun i g ->
          line (Protocol.Reschedule { ctg_text = g.text; mesh; algo; faults = faults i }))
        popular;
    simulate_lines =
      Array.map
        (fun g ->
          line (Protocol.Simulate { ctg_text = g.text; mesh; algo; faults = []; self_timed = false }))
        popular;
    fresh_lines = Array.map schedule_line fresh;
    infeasible_lines = Array.map schedule_line infeasible;
    malformed_lines =
      [|
        "not json";
        {|{"op": "schedule", "ctg": "ctg 1|};
        {|{"op": "frobnicate"}|};
        {|{"op": "schedule", "ctg": "ctg 1\npes 16\ntask 0 name t0\n  times 1 2\n"}|};
        {|{"op": "reschedule", "ctg": "ctg 1\npes 1\n", "faults": ["pe:x"]}|};
        schedule_line wrong_pes;
      |];
    warmup_line =
      schedule_line (generate ~platform ~seed:(gseed 5 0) ~tasks:(scale 60) ~tightness:3.0);
  }

(* --- The daemon -------------------------------------------------- *)

type daemon = { pid : int; client : Noc_serve.Client.t }

let run_dir = ".perfbench_run"

let nocsched_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/nocsched.exe"

let live : int list ref = ref []

(* Kills and reaps any daemon still running when this program exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Connects to the daemon's socket as soon as it listens: a 1 ms poll,
   so set-up time follows the daemon's start-up, not a retry interval.
   Gives up after 10 s, or at once when the daemon has exited. *)
let await_daemon ~pid socket =
  let deadline = now () +. 10. in
  let rec go () =
    match Noc_serve.Client.connect ~socket_path:socket () with
    | client -> client
    | exception (Unix.Unix_error _ as exn) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith "serve-mix: the daemon exited before listening");
      if now () > deadline then raise exn;
      Unix.sleepf 0.001;
      go ()
  in
  go ()

(* Daemons spawned so far; each gets its own socket. *)
let spawned = ref 0

let spawn () =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  incr spawned;
  let socket =
    Filename.concat run_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !spawned)
  in
  let exe = nocsched_exe () in
  let env = Array.append [| "NOCSCHED_LOG=warn" |] (Unix.environment ()) in
  let pid =
    Unix.create_process_env exe [| exe; "serve"; "--socket"; socket |] env Unix.stdin
      Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  { pid; client = await_daemon ~pid socket }

let stop d =
  (try ignore (Noc_serve.Client.request d.client (Protocol.request_to_line Protocol.Shutdown))
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  Noc_serve.Client.close d.client;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* --- Set-up ------------------------------------------------------ *)

type input = { pools : pools; daemon : daemon }

(* Generates the pools, spawns the daemon, waits for its first stats
   reply and sends one untimed warm-up request outside the pools. *)
let setup ~quick ~suite =
  let pools = make_pools ~quick ~suite in
  let daemon = spawn () in
  let ok line =
    match Json.parse (Noc_serve.Client.request daemon.client line) with
    | Ok reply -> Json.member "ok" reply = Some (Json.Bool true)
    | Error _ -> false
  in
  if not (ok (Protocol.request_to_line Protocol.Stats) && ok pools.warmup_line) then
    failwith "serve-mix: daemon set-up failed";
  { pools; daemon }

(* --- The stream -------------------------------------------------- *)

let stats_line = Protocol.request_to_line Protocol.Stats

type sent = {
  cls : cls;
  line : string;
  graph : graph option;
  mutable label : string;  (** Per-class metric label, set from the reply. *)
  mutable client_ms : float;
  mutable digest : string;  (** Of the daemon's reply. *)
  mutable served_tasks : int;  (** Tasks of the graph, when answered ok. *)
}

(* The stream, in blocks of 200 requests that hold every class at its
   exact share, in a seeded order. Fresh, infeasible, reschedule and
   malformed requests walk their pools round-robin, so the expensive
   requests of a run do not depend on the seed; the seed orders each
   block and draws the popular graphs. *)
let stream ~seed pools =
  let rng = Noc_util.Prng.create ~seed in
  let block = Array.of_list (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) shares) in
  let pos = ref (Array.length block) in
  let cursors = Hashtbl.create 8 in
  let round_robin cls n =
    let i = Option.value (Hashtbl.find_opt cursors cls) ~default:0 in
    Hashtbl.replace cursors cls (i + 1);
    i mod n
  in
  (* Uniform draws to the fourth power skew popularity: the first third
     of the set takes 76% of the draws, so hits dominate the stream. *)
  let draw_popular () =
    let u = Noc_util.Prng.float rng ~bound:1. in
    int_of_float (u *. u *. u *. u *. float_of_int (Array.length pools.popular))
  in
  let mk cls ?graph line = { cls; line; graph; label = ""; client_ms = 0.; digest = ""; served_tasks = 0 } in
  fun () ->
    if !pos = Array.length block then (
      Noc_util.Prng.shuffle rng block;
      pos := 0);
    let cls = block.(!pos) in
    incr pos;
    match cls with
    | Popular ->
      let i = draw_popular () in
      mk cls ~graph:pools.popular.(i) pools.schedule_lines.(i)
    | Dvfs ->
      let i = draw_popular () in
      mk cls ~graph:pools.popular.(i) pools.dvfs_lines.(i)
    | Simulate ->
      let i = draw_popular () in
      mk cls ~graph:pools.popular.(i) pools.simulate_lines.(i)
    | Reschedule ->
      (* The same 20 popular graphs in every window, spread over the
         popular sizes. *)
      let n = window_blocks * share Reschedule in
      let k = spread ~per:(share Reschedule) n (round_robin cls n) in
      let i = k * Array.length pools.popular / n in
      mk cls ~graph:pools.popular.(i) pools.reschedule_lines.(i)
    | Fresh ->
      let i = round_robin cls (Array.length pools.fresh) in
      mk cls ~graph:pools.fresh.(i) pools.fresh_lines.(i)
    | Infeasible ->
      let i = round_robin cls (Array.length pools.infeasible) in
      mk cls ~graph:pools.infeasible.(i) pools.infeasible_lines.(i)
    | Malformed -> mk cls pools.malformed_lines.(round_robin cls (Array.length pools.malformed_lines))
    | Stats -> mk cls stats_line

let field name reply = Json.member name reply

(* What a reply said, once checked against its class. *)
type verdict = { accepted : bool; schedule : (float * int) option (** Energy and misses of a plain schedule reply. *) }

(* Labels the request from its class and, for plain schedules, the
   reply's cache verdict; then checks the reply against the class. *)
let judge (checks : Checks.t) s reply_line =
  let is_true name reply = field name reply = Some (Json.Bool true) in
  let parsed = Json.parse reply_line in
  s.label <-
    (match (s.cls, parsed) with
    | (Popular | Fresh), Ok reply -> if is_true "cached" reply then "hit" else "miss"
    | (Popular | Fresh), Error _ -> "miss"
    | Dvfs, _ -> "dvfs"
    | Reschedule, _ -> "reschedule"
    | Simulate, _ -> "simulate"
    | Infeasible, _ -> "refused"
    | Malformed, _ -> "malformed"
    | Stats, _ -> "stats");
  let fail why = Checks.fail checks (Printf.sprintf "%s request: %s" s.label why) in
  match parsed with
  | Error msg ->
    fail ("unparseable reply: " ^ msg);
    { accepted = false; schedule = None }
  | Ok reply ->
    let ok = is_true "ok" reply in
    let expect_ok ~certified =
      if not ok then fail ("refused: " ^ reply_line)
      else if certified && not (is_true "certified" reply) then fail "not certified"
    in
    let expect_refusal () =
      if ok then fail "accepted, expected a structured refusal"
      else
        match field "error" reply with
        | Some (Json.String _) -> ()
        | _ -> fail "refusal without an error field"
    in
    let schedule =
      match s.cls with
      | Popular | Fresh -> (
        expect_ok ~certified:true;
        match (field "energy" reply, field "misses" reply) with
        | Some (Json.Number e), Some (Json.Number m) when ok -> Some (e, int_of_float m)
        | _ ->
          if ok then fail "no energy or misses";
          None)
      | Dvfs | Reschedule ->
        expect_ok ~certified:true;
        None
      | Simulate ->
        expect_ok ~certified:true;
        if ok && field "lost_tasks" reply <> Some (Json.Number 0.) then fail "lost tasks";
        None
      | Infeasible | Malformed ->
        expect_refusal ();
        None
      | Stats ->
        expect_ok ~certified:false;
        None
    in
    { accepted = ok; schedule }

type live_run = {
  checks : Checks.t;
  sent : sent array;  (** In sending order. *)
  elapsed_s : float;
  tasks : int;  (** CTG tasks in graph requests answered ok. *)
  energies : Samples.t;  (** Of plain schedule replies. *)
  misses : int;
  deadline_tasks : int;
  final_stats : Json.t option;
}

let block_size = List.fold_left (fun a (_, n) -> a + n) 0 shares

(* Sends the stream for [seconds], closed loop, one request at a time.
   A dropped connection fails a check and ends the stream. *)
let drive ~seed ~seconds input =
  let checks = Checks.create () in
  let next = stream ~seed input.pools in
  let energies = Samples.create () in
  let sent = ref [] and tasks = ref 0 and misses = ref 0 and deadline_tasks = ref 0 in
  let dropped = ref false in
  let send_one () =
    let s = next () in
    Checks.attempt checks;
    let t0 = now () in
    match Noc_serve.Client.request input.daemon.client s.line with
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
      Checks.fail checks "connection dropped";
      dropped := true
    | reply -> (
      s.client_ms <- ms_since t0;
      s.digest <- Stdlib.Digest.string reply;
      sent := s :: !sent;
      let v = judge checks s reply in
      (match s.graph with
      | Some g when v.accepted ->
        s.served_tasks <- g.tasks;
        tasks := !tasks + g.tasks
      | _ -> ());
      match (v.schedule, s.graph) with
      | Some (e, m), Some g ->
        Samples.add energies e;
        misses := !misses + m;
        deadline_tasks := !deadline_tasks + g.deadline_tasks
      | _ -> ())
  in
  let elapsed_s =
    rounds_for ~seconds ~stop:(fun () -> !dropped) (fun () ->
        for k = 0 to block_size - 1 do
          if k mod 20 = 0 then ignore (Calibrate.probe ());
          if not !dropped then send_one ()
        done)
  in
  let final_stats =
    if !dropped then None
    else Result.to_option (Json.parse (Noc_serve.Client.request input.daemon.client stats_line))
  in
  {
    checks;
    sent = Array.of_list (List.rev !sent);
    elapsed_s;
    tasks = !tasks;
    energies;
    misses = !misses;
    deadline_tasks = !deadline_tasks;
    final_stats;
  }

(* Per complete block of the stream: its busy time (summed request
   latencies) and the tasks its answered graphs carried. *)
let blocks live =
  let n = Array.length live.sent / block_size in
  List.init n (fun b ->
      let sub = Array.sub live.sent (b * block_size) block_size in
      let busy = Array.fold_left (fun a s -> a +. s.client_ms) 0. sub in
      let tasks = Array.fold_left (fun a s -> a + s.served_tasks) 0 sub in
      let lat = Samples.create () in
      Array.iter (fun s -> Samples.add lat s.client_ms) sub;
      (busy, tasks, lat))

let end_to_end ~(setup : Calibrate.setup) live input =
  let all = Samples.create () in
  Array.iter (fun s -> Samples.add all s.client_ms) live.sent;
  let n = Samples.count all in
  let n_energy = Samples.count live.energies in
  let fail_ratio = float_of_int live.checks.failed /. float_of_int (max 1 live.checks.attempted) in
  let miss_ratio = float_of_int live.misses /. float_of_int (max 1 live.deadline_tasks) in
  let bs = blocks live in
  (* Rates over the complete blocks: the medians of per-block rates
     swung with each block's popular draws (13% over five runs, against
     2.5% for the whole run's rate). *)
  let busy_ms = List.fold_left (fun a (busy, _, _) -> a +. busy) 0. bs in
  let per_busy_s x = float_of_int x /. busy_ms *. 1000. in
  let block_rate = per_busy_s (List.length bs * block_size) in
  let block_tasks = per_busy_s (List.fold_left (fun a (_, tasks, _) -> a + tasks) 0 bs) in
  (* p99 over the complete windows, which all hold the same costly
     requests (10 beyond the p99 in each); a run shorter than one window
     uses every request. *)
  let windowed = Samples.create () in
  let in_windows = List.length bs / window_blocks * window_blocks in
  List.iteri
    (fun b (_, _, lat) -> if b < in_windows then List.iter (Samples.add windowed) lat.Samples.items)
    bs;
  let p99_of = if Samples.count windowed = 0 then all else windowed in
  let p99 = Samples.percentile p99_of 99. in
  Calibrate.describe ~setup;
  Printf.printf
    "  raw wall clock: setup_s %g tasks_per_s %g req_per_s %g p50 %g p99 %g; whole run, client \
     work included: req_per_s %g tasks_per_s %g, p99 %g (%d blocks)\n"
    (Samples.median setup.raw) block_tasks block_rate (Samples.median all) p99
    (float_of_int n /. live.elapsed_s)
    (float_of_int live.tasks /. live.elapsed_s)
    (Samples.percentile all 99.) (List.length bs);
  Printf.printf "  %d requests in %.2f s; deadline_misses %d; fail_ratio %g\n" n live.elapsed_s
    live.misses fail_ratio;
  Printf.printf "  %-12s %8s %12s %10s\n" "class" "requests" "total_ms" "p50_ms";
  List.iter
    (fun label ->
      let x = Samples.create () in
      Array.iter (fun s -> if s.label = label then Samples.add x s.client_ms) live.sent;
      Printf.printf "  %-12s %8d %12.1f %10.3f\n" label (Samples.count x) (Samples.total x)
        (Samples.median x))
    ("stats" :: Layers.serve_classes);
  [
    metric ~samples:(Samples.count setup.raw) "setup_s" "s"
      (Samples.median setup.scaled);
    metric ~samples:n "tasks_per_s" "tasks/s" (Calibrate.rate block_tasks);
    metric ~samples:n "req_per_s" "req/s" (Calibrate.rate block_rate);
    metric ~samples:n "latency_p50_ms" "ms" (Calibrate.time (Samples.median all));
    metric ~samples:(Samples.count p99_of) "latency_p99_ms" "ms" (Calibrate.time p99);
    metric ~samples:n_energy "energy_nj" "nJ" (Samples.total live.energies /. float_of_int (max 1 n_energy));
    metric ~samples:n_energy "deadlines_met_ratio" "ratio" (1. -. miss_ratio);
    metric ~samples:n "ok_ratio" "ratio" (1. -. fail_ratio);
    metric "peak_rss_mb" "MB" (proc_status_mb ~pid:input.daemon.pid "VmHWM");
  ]

(* --- The traced run ---------------------------------------------- *)

let cache_ratio stats name =
  let num k c = match field k c with Some (Json.Number x) -> x | _ -> 0. in
  match Option.bind stats (field name) with
  | Some c ->
    let hits = num "hits" c and misses = num "misses" c in
    (if hits +. misses = 0. then 0. else hits /. (hits +. misses)), num "evictions" c
  | None -> (0., 0.)

(* Replays the live stream in-process through [Server.handle_line]: the
   handler's own time per request, without socket or select loop. The
   replies must match the daemon's byte for byte (stats aside). *)
let replay (checks : Checks.t) (sent : sent array) =
  let state = Noc_serve.Server.make_state (Noc_serve.Server.default_config ~socket_path:"") in
  Array.mapi
    (fun i s ->
      let t0 = now () in
      let reply, _ = Noc_serve.Server.handle_line state s.line in
      let ms = ms_since t0 in
      if s.cls <> Stats && Stdlib.Digest.string reply <> s.digest then
        Checks.fail checks (Printf.sprintf "request %d: in-process reply differs from the daemon's" i);
      ms)
    sent

(* The schedule-miss path of the stream, stage by stage: every distinct
   graph the daemon computed fresh (labelled miss or refused), untraced
   then traced. *)
let staged_misses (checks : Checks.t) (sent : sent array) =
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      match s.graph with
      | Some g when (s.label = "miss" || s.label = "refused") && not (Hashtbl.mem seen g.text) ->
        Hashtbl.replace seen g.text ()
      | _ -> ())
    sent;
  let texts = Hashtbl.fold (fun t () acc -> t :: acc) seen [] |> List.sort compare in
  let platform = Offline.fresh_platform () in
  let rec_ = Pipeline.recorder () in
  let timer = Pipeline.recording rec_ in
  let plain_s = ref 0. and traced_s = ref 0. in
  let instance = Samples.create () in
  let repairs = ref [] and downclocked = ref 0 in
  List.iter
    (fun text ->
      Checks.attempt checks;
      let run ?timer ~staged () =
        let t0 = now () in
        let r = Pipeline.run ?timer ~staged platform text in
        (r, ms_since t0)
      in
      match (run ~staged:false (), run ~timer ~staged:true ()) with
      | (Ok plain, plain_ms), (Ok traced, traced_ms) ->
        plain_s := !plain_s +. plain_ms;
        traced_s := !traced_s +. traced_ms;
        Samples.add instance traced_ms;
        let p = Pipeline.assess platform plain and t = Pipeline.assess platform traced in
        List.iter (Checks.fail checks) t.errors;
        if p.schedule_text <> t.schedule_text then
          Checks.fail checks "staged EAS differs from Eas.schedule";
        repairs := Option.to_list t.repair @ !repairs;
        downclocked := !downclocked + t.downclocked
      | (Error msg, _), _ | _, (Error msg, _) -> Checks.fail checks msg)
    texts;
  Layers.print_table ~passes:1 ~instance rec_;
  Layers.eas_metrics ~checks ~passes:1 ~instance ~repairs:!repairs ~downclocked:!downclocked rec_
  @ [
      metric ~samples:(Samples.count instance) "trace.overhead_pct" "%"
        (if !plain_s = 0. then 0. else (!traced_s -. !plain_s) /. !plain_s *. 100.);
    ]

let traced ~seconds ~seed input =
  let pid = input.daemon.pid in
  let rss_start = proc_status_mb ~pid "VmRSS" in
  let live = drive ~seed ~seconds:(seconds /. 2.) input in
  let rss_end = proc_status_mb ~pid "VmRSS" in
  stop input.daemon;
  let checks = live.checks in
  let handle_ms = replay checks live.sent in
  let by_label f =
    let t = Hashtbl.create 8 in
    Array.iteri
      (fun i s ->
        let x = match Hashtbl.find_opt t s.label with Some x -> x | None -> let x = Samples.create () in Hashtbl.replace t s.label x; x in
        Samples.add x (f i s))
      live.sent;
    fun label -> Option.value (Hashtbl.find_opt t label) ~default:(Samples.create ())
  in
  let client = by_label (fun _ s -> s.client_ms) in
  let handle = by_label (fun i _ -> handle_ms.(i)) in
  let transport = Samples.create () in
  Array.iteri (fun i s -> Samples.add transport (s.client_ms -. handle_ms.(i))) live.sent;
  let class_metrics =
    List.concat_map
      (fun c ->
        let x = client c and h = handle c in
        [
          metric ~samples:(Samples.count x) ("serve." ^ c ^ "_ms") "ms" (Samples.median x);
          metric ~samples:(Samples.count x) ("serve." ^ c ^ "_p99_ms") "ms" (Samples.percentile x 99.);
          metric ~samples:(Samples.count h) ("serve.handle." ^ c ^ "_ms") "ms" (Samples.median h);
        ])
      Layers.serve_classes
  in
  let hit, evictions = cache_ratio live.final_stats "cache" in
  let kernel_hit, _ = cache_ratio live.final_stats "kernel_cache" in
  let parse_hit, _ = cache_ratio live.final_stats "parse_cache" in
  let serve_metrics =
    class_metrics
    @ [
        metric ~samples:(Samples.count transport) "serve.transport_ms" "ms" (Samples.median transport);
        metric "serve.cache_hit_ratio" "ratio" hit;
        metric "serve.kernel_cache_hit_ratio" "ratio" kernel_hit;
        metric "serve.parse_cache_hit_ratio" "ratio" parse_hit;
        metric "serve.cache_evictions" "count" evictions;
        metric "serve.daemon_rss_start_mb" "MB" rss_start;
        metric "serve.daemon_rss_end_mb" "MB" rss_end;
      ]
  in
  let eas = staged_misses checks live.sent in
  (checks, serve_metrics @ eas)

let run ~quick ~suite ~seed ~seconds ~trace =
  if trace then traced ~seconds ~seed (setup ~quick ~suite)
  else
    let input, setup =
      Calibrate.setups ~reps:5 ~seconds
        ~release:(fun i -> stop i.daemon)
        (fun () -> setup ~quick ~suite)
    in
    (* Back to back, before the stream: set-ups spread over the stream
       (as the offline workloads do) spread 19% across runs, against
       11-14% here. *)
    Calibrate.setup_rest setup;
    let live = drive ~seed ~seconds input in
    let metrics = end_to_end ~setup live input in
    stop input.daemon;
    (live.checks, metrics)
