module Json = Noc_obs.Json
module Counters = Noc_obs.Counters
module Decisions = Noc_obs.Decisions
module Ctg = Noc_ctg.Ctg
module Ctg_io = Noc_ctg.Ctg_io
module Platform = Noc_noc.Platform
module Schedule = Noc_sched.Schedule
module Schedule_io = Noc_sched.Schedule_io
module Metrics = Noc_sched.Metrics
module Fault_set = Noc_fault.Fault_set
module Runner = Noc_experiments.Runner
module Pipeline = Noc_experiments.Pipeline

type config = { socket_path : string; capacity : int }

let default_config ~socket_path = { socket_path; capacity = 64 }

(* A cached result. [extra] holds the reply fields specific to the op
   that computed it: the downclock figures of a DVFS entry (whose
   schedule and text are then the scaled, format-v3 ones) or the
   rescheduling stats of a [reschedule] entry. *)
type entry = {
  schedule : Schedule.t;
  text : string;
  energy : float;
  makespan : float;
  misses : int;
  decisions : string option;
  extra : (string * Json.t) list;
}

type state = {
  platforms : (int * int, Platform.t * string) Hashtbl.t;
      (** Warm platform and its memoized content digest per mesh. *)
  schedules : entry Cache.t;
  kernels : Noc_eas.Kernel.t Cache.t;
  parses : (Ctg.t * string) Cache.t;
      (** [ctg_text -> (parsed graph, Ctg.digest)]: a warm cache hit
          costs neither the text parse nor the canonical-serialization
          digest, only the wire-JSON parse. Keyed by the raw request
          text, so only byte-identical texts short-circuit; another
          text of a digest-equal graph takes the slow path once and
          then hits the schedule cache. *)
  refusals : string Cache.t;
      (** [key -> message]: the certification refusals of unfaulted
          schedules, under the key their success would have been cached
          under (see {!obtain}). *)
  mutable requests : int;
  mutable errors : int;
}

let make_state config =
  Counters.set_enabled true;
  {
    platforms = Hashtbl.create 4;
    schedules = Cache.create ~capacity:config.capacity;
    kernels = Cache.create ~capacity:(max 8 config.capacity);
    parses = Cache.create ~capacity:(max 8 config.capacity);
    refusals = Cache.create ~capacity:(max 8 config.capacity);
    requests = 0;
    errors = 0;
  }

(* The CLI's platform, so the daemon serves bit-identical schedules to
   one-shot `nocsched schedule` runs, with its routes warmed once. *)
let platform_for state (cols, rows) =
  match Hashtbl.find_opt state.platforms (cols, rows) with
  | Some pd -> pd
  | None ->
    let p = Pipeline.mesh_platform (cols, rows) in
    Platform.warm_routes p;
    let pd = (p, Platform.digest p) in
    Hashtbl.replace state.platforms (cols, rows) pd;
    pd

(* The kernel cache's key: the graph's and the platform's digests. *)
let kernel_key ~ctg_digest ~platform_digest = ctg_digest ^ ":" ^ platform_digest

(* Parse-and-digest, memoized on the raw text (see [state.parses]). A
   graph whose kernel is cached for [mesh] is replaced by the graph
   value that kernel holds, so the daemon keeps one copy of it. *)
let parse_graph state ~mesh ctg_text =
  match Cache.find state.parses ctg_text with
  | Some v -> Ok v
  | None -> (
    match Ctg_io.of_string ctg_text with
    | Error _ as e -> e
    | Ok ctg ->
      let ctg_digest = Ctg.digest ctg in
      let kernel =
        Option.bind (Hashtbl.find_opt state.platforms mesh) (fun (_, platform_digest) ->
            Cache.peek state.kernels (kernel_key ~ctg_digest ~platform_digest))
      in
      let v = (Option.fold ~none:ctg ~some:Noc_eas.Kernel.ctg kernel, ctg_digest) in
      Cache.add state.parses ctg_text v;
      Ok v)

let algo_wire algo = String.lowercase_ascii (Runner.algo_name algo)

(* The cache key, [algo:ctg:platform:faults:dvfs]: a served schedule is
   a pure function of these five, so each is a content digest. The
   fault segment hashes the set's canonical key (the empty set digests
   to a fixed value, so [schedule] and [reschedule] requests share the
   key space without colliding). DVFS is scheduler configuration, not
   a platform property, so it gets its own segment: "-" when off, the
   digest of the ladder's bit-exact hex text when on, so a [--dvfs]
   request never aliases an unscaled schedule. FNV-1a is a content
   digest, not a cryptographic hash: the daemon trusts its clients. *)
let key ?ladder ~algo ~digests faults =
  let ctg_digest, platform_digest = digests in
  String.concat ":"
    [
      algo_wire algo;
      ctg_digest;
      platform_digest;
      Noc_util.Fnv.digest (Fault_set.key faults);
      (match ladder with
      | None -> "-"
      | Some table -> Noc_util.Fnv.digest (Noc_dvfs.Vf_table.hex table));
    ]

(* ------------------------------------------------------------------ *)
(* Decision-log capture.                                               *)

(* Reproduces a fresh one-shot process: ambient run label "" and a
   sequence counter starting at 0 ([with_run] resets both). *)
let capture_decisions f =
  Decisions.reset ();
  Decisions.set_enabled true;
  let result =
    Fun.protect
      ~finally:(fun () -> Decisions.set_enabled false)
      (fun () -> Decisions.with_run "" f)
  in
  let jsonl = Decisions.export_jsonl () in
  Decisions.reset ();
  (result, jsonl)

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)

let make_entry ?decisions ?dvfs ?(extra = []) ~energy ~misses schedule =
  {
    schedule;
    text = Schedule_io.to_string ?dvfs schedule;
    energy;
    makespan = Schedule.makespan schedule;
    misses;
    decisions;
    extra;
  }

let kernel_for state platform ctg ~ctg_digest ~platform_digest =
  let key = kernel_key ~ctg_digest ~platform_digest in
  match Cache.find state.kernels key with
  | Some k -> k
  | None ->
    let k = Noc_eas.Kernel.build platform ctg in
    Cache.add state.kernels key k;
    k

(* A cache miss through the pipeline, inside one decision-log capture
   when [want_decisions]; a certification refusal is [Error]. Kernels
   are reused across runs: [Kernel.build] is deterministic and the
   kernel is read-only after construction, so reuse is bit-neutral.
   A reused kernel is run on the graph and platform it records: the
   kernel cache is keyed by content digest but the parse cache by raw
   text, so another text of a digest-equal graph parses to another
   [Ctg.t], which the kernel would refuse. EDF takes none. *)
let run_fresh ?ladder state platform ctg algo ~digests ~want_decisions =
  let ctg_digest, platform_digest = digests in
  let run () =
    let request = { (Pipeline.request algo) with ladder } in
    match algo with
    | Runner.Edf -> Pipeline.run platform ctg request
    | Runner.Eas | Runner.Eas_base ->
      let kernel = kernel_for state platform ctg ~ctg_digest ~platform_digest in
      Pipeline.run (Noc_eas.Kernel.platform kernel) (Noc_eas.Kernel.ctg kernel)
        { request with kernel = Some kernel }
  in
  let r, decisions =
    if want_decisions then
      let r, d = capture_decisions run in
      (r, Some d)
    else (run (), None)
  in
  match Pipeline.refusal r.diagnostics with
  | Some msg -> Error msg
  | None -> Ok (r, decisions)

(* The memoised schedule for (algo, ctg, platform) with no faults.
   Returns the entry, whether it was served from the cache, and the
   cache key; or the memoised refusal. A hit that needs a decision log
   the entry does not carry is recomputed in full (and the richer entry
   replaces the cached one). A certification refusal is a pure function
   of the key, so it is memoised under [key] and replayed as the same
   message. *)
let obtain state platform ctg algo ~digests ~want_decisions =
  let key = key ~algo ~digests Fault_set.empty in
  match Cache.find state.schedules key with
  | Some entry when not (want_decisions && entry.decisions = None) -> Ok (entry, true, key)
  | Some _ | None -> (
    match Cache.find state.refusals key with
    | Some msg -> Error msg
    | None -> (
      match run_fresh state platform ctg algo ~digests ~want_decisions with
      | Error msg ->
        Cache.add state.refusals key msg;
        Error msg
      | Ok (r, decisions) ->
        let entry =
          make_entry ?decisions ~energy:r.metrics.total_energy
            ~misses:(Metrics.miss_count r.metrics) r.schedule
        in
        Cache.add state.schedules key entry;
        Ok (entry, false, key)))

(* ------------------------------------------------------------------ *)
(* Request handlers.                                                   *)

let num n = Json.Number n
let int_num n = Json.Number (float_of_int n)

(* The fields of every reply that carries a schedule, then the entry's
   op-specific ones. *)
let schedule_fields ~cached ~key ~algo (entry : entry) =
  [
    ("cached", Json.Bool cached);
    ("key", Json.String key);
    ("algo", Json.String (algo_wire algo));
    ("certified", Json.Bool true);
    ("energy", num entry.energy);
    ("makespan", num entry.makespan);
    ("misses", int_num entry.misses);
    ("schedule", Json.String entry.text);
  ]
  @ entry.extra

let with_graph state ?id ~ctg_text ~mesh k =
  match parse_graph state ~mesh ctg_text with
  | Error msg -> Protocol.error_line ?id ("ctg: " ^ msg)
  | Ok (ctg, ctg_digest) ->
    let platform, platform_digest = platform_for state mesh in
    if Ctg.n_pes ctg <> Platform.n_pes platform then
      Protocol.error_line ?id
        (Printf.sprintf "graph expects %d PEs but mesh %s has %d" (Ctg.n_pes ctg)
           (Protocol.mesh_name mesh) (Platform.n_pes platform))
    else k platform ctg ~digests:(ctg_digest, platform_digest)

(* [with_graph] for a fault-carrying request: the specs are parsed
   first and then checked against the request's platform. *)
let with_faults state ?id ~ctg_text ~mesh specs k =
  match Fault_set.of_strings specs with
  | Error msg -> Protocol.error_line ?id ("faults: " ^ msg)
  | Ok faults -> (
    with_graph state ?id ~ctg_text ~mesh @@ fun platform ctg ~digests ->
    match Fault_set.check platform faults with
    | Error msg -> Protocol.error_line ?id ("faults: " ^ msg)
    | Ok faults -> k platform ctg ~digests faults)

let decisions_field ~decisions (entry : entry) fields =
  match entry.decisions with
  | Some d when decisions -> fields @ [ ("decisions", Json.String d) ]
  | Some _ | None -> fields

(* DVFS slack reclamation over the committed base schedule. The scaled
   entry lives under its own cache key (the ladder's segment of [key]),
   so a [--dvfs] request never aliases a cached unscaled schedule and
   vice versa. When a decision log is wanted the EAS placements and the
   downclocks must share one run label for CLI bit-parity, so the fresh
   path wraps schedule + reclaim in a single [capture_decisions];
   otherwise the base comes through the normal (possibly cached)
   [obtain] path and only the cheap reclamation pass runs. *)
let handle_dvfs_schedule state ?id ~algo ~decisions ~table platform ctg ~digests =
  let dkey = key ~ladder:table ~algo ~digests Fault_set.empty in
  let reply ~cached ~base_cached (entry : entry) =
    schedule_fields ~cached ~key:dkey ~algo entry
    @ [ ("base_cached", Json.Bool base_cached) ]
    |> decisions_field ~decisions entry
    |> Protocol.ok_line ?id ~op:"schedule"
  in
  let fresh () =
    let base_result =
      if decisions then
        run_fresh ~ladder:table state platform ctg algo ~digests ~want_decisions:true
        |> Result.map (fun ((r : Pipeline.t), dlog) ->
               (r.metrics.total_energy, false, dlog, Option.get r.dvfs))
      else
        match obtain state platform ctg algo ~digests ~want_decisions:false with
        | Error msg -> Error msg
        | Ok (base, base_cached, _) ->
          Ok (base.energy, base_cached, None, Pipeline.reclaim ~table platform ctg base.schedule)
    in
    match base_result with
    | Error msg -> Protocol.error_line ?id msg
    | Ok (base_energy, base_cached, dlog, d) -> (
      match Pipeline.refusal d.scaled_diagnostics with
      | Some msg -> Protocol.error_line ?id ("dvfs: " ^ msg)
      | None ->
        let r = d.reclaim in
        let reclaimed = Noc_dvfs.Reclaim.reclaimed r in
        let entry =
          make_entry ?decisions:dlog ~dvfs:r.annotations
            ~extra:
              [
                ("dvfs", Json.Bool true);
                ("vf_levels", Json.String (Noc_dvfs.Vf_table.to_string table));
                ("downclocked", int_num r.downclocked);
                ("reclaimed", num reclaimed);
              ]
            ~energy:(base_energy -. reclaimed) ~misses:d.scaled_misses r.schedule
        in
        Cache.add state.schedules dkey entry;
        reply ~cached:false ~base_cached entry)
  in
  match Cache.find state.schedules dkey with
  | Some entry when not (decisions && entry.decisions = None) ->
    reply ~cached:true ~base_cached:true entry
  | Some _ | None -> fresh ()

let handle_schedule state ?id ~ctg_text ~mesh ~algo ~decisions ~dvfs () =
  with_graph state ?id ~ctg_text ~mesh @@ fun platform ctg ~digests ->
  match dvfs with
  | Some table ->
    handle_dvfs_schedule state ?id ~algo ~decisions ~table platform ctg ~digests
  | None -> (
    match obtain state platform ctg algo ~digests ~want_decisions:decisions with
    | Error msg -> Protocol.error_line ?id msg
    | Ok (entry, cached, key) ->
      schedule_fields ~cached ~key ~algo entry
      |> decisions_field ~decisions entry
      |> Protocol.ok_line ?id ~op:"schedule")

let handle_simulate state ?id ~ctg_text ~mesh ~algo ~faults ~self_timed () =
  with_faults state ?id ~ctg_text ~mesh faults @@ fun platform ctg ~digests faults ->
  match obtain state platform ctg algo ~digests ~want_decisions:false with
  | Error msg -> Protocol.error_line ?id msg
  | Ok (entry, cached, key) ->
    let discipline =
      if self_timed then Noc_sim.Executor.Self_timed
      else Noc_sim.Executor.Time_triggered
    in
    let outcome =
      Noc_sim.Executor.run ~discipline ~faults platform ctg entry.schedule
    in
    Protocol.ok_line ?id ~op:"simulate"
      (schedule_fields ~cached ~key ~algo entry
      @ [
          ( "sim_misses",
            int_num (List.length outcome.Noc_sim.Executor.deadline_misses) );
          ("lost_tasks", int_num (List.length outcome.Noc_sim.Executor.lost_tasks));
          ("waiting_time", num outcome.Noc_sim.Executor.waiting_time);
          ( "realised_makespan",
            num (Schedule.makespan outcome.Noc_sim.Executor.realised) );
        ])

let handle_reschedule state ?id ~ctg_text ~mesh ~algo ~faults () =
  with_faults state ?id ~ctg_text ~mesh faults @@ fun platform ctg ~digests faults ->
  let full_key = key ~algo ~digests faults in
  match Cache.find state.schedules full_key with
  | Some entry ->
    Protocol.ok_line ?id ~op:"reschedule"
      (schedule_fields ~cached:true ~key:full_key ~algo entry)
  | None -> (
    match obtain state platform ctg algo ~digests ~want_decisions:false with
    | Error msg -> Protocol.error_line ?id ("base schedule: " ^ msg)
    | Ok (base, base_cached, _) -> (
      match Pipeline.reschedule platform ctg ~faults base.schedule with
      | Error msg -> Protocol.error_line ?id msg
      | Ok (outcome, diags) -> (
        match Pipeline.refusal diags with
        | Some msg -> Protocol.error_line ?id msg
        | None ->
          let schedule = outcome.schedule and stats = outcome.stats in
          (* The reply carries the certifier's own Eq. 3 total, which
             prices the detours actually taken. *)
          let entry =
            make_entry
              ~extra:
                [
                  ("migrated", int_num stats.migrated_tasks);
                  ("rerouted", int_num stats.rerouted_transactions);
                  ("full_rerun", Json.Bool stats.used_full_rerun);
                ]
              ~energy:(Noc_analysis.Certify.energy platform ctg schedule)
              ~misses:stats.misses schedule
          in
          Cache.add state.schedules full_key entry;
          Protocol.ok_line ?id ~op:"reschedule"
            (schedule_fields ~cached:false ~key:full_key ~algo entry
            @ [ ("base_cached", Json.Bool base_cached) ]))))

let cache_json c =
  Json.Obj
    [
      ("capacity", int_num (Cache.capacity c));
      ("entries", int_num (Cache.length c));
      ("hits", int_num (Cache.hits c));
      ("misses", int_num (Cache.misses c));
      ("evictions", int_num (Cache.evictions c));
    ]

let handle_stats state ?id () =
  let latency =
    Counters.summaries ()
    |> List.filter (fun (name, _) -> String.starts_with ~prefix:"serve/" name)
    |> List.map (fun (name, s) ->
           ( name,
             Json.Obj
               [
                 ("count", int_num s.Counters.count);
                 ("p50_ms", num s.Counters.p50);
                 ("p99_ms", num s.Counters.p99);
               ] ))
  in
  Protocol.ok_line ?id ~op:"stats"
    [
      ("requests", int_num state.requests);
      ("errors", int_num state.errors);
      ("cache", cache_json state.schedules);
      ("kernel_cache", cache_json state.kernels);
      ("parse_cache", cache_json state.parses);
      ("refusal_cache", cache_json state.refusals);
      ("latency", Json.Obj latency);
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)

let latency_hist op = Counters.histogram ("serve/" ^ op)

let dispatch state ?id = function
  | Protocol.Schedule { ctg_text; mesh; algo; decisions; dvfs } ->
    (handle_schedule state ?id ~ctg_text ~mesh ~algo ~decisions ~dvfs (), false)
  | Protocol.Simulate { ctg_text; mesh; algo; faults; self_timed } ->
    (handle_simulate state ?id ~ctg_text ~mesh ~algo ~faults ~self_timed (), false)
  | Protocol.Reschedule { ctg_text; mesh; algo; faults } ->
    (handle_reschedule state ?id ~ctg_text ~mesh ~algo ~faults (), false)
  | Protocol.Stats -> (handle_stats state ?id (), false)
  | Protocol.Shutdown -> (Protocol.ok_line ?id ~op:"shutdown" [], true)

let handle_line state line =
  state.requests <- state.requests + 1;
  match Protocol.parse_request line with
  | Error msg ->
    state.errors <- state.errors + 1;
    (Protocol.error_line msg, false)
  | Ok (request, id) ->
    let op = Protocol.op_name request in
    let t0 = Unix.gettimeofday () in
    let reply, stop =
      try dispatch state ?id request with
      | Failure msg -> (Protocol.error_line ?id msg, false)
      | Invalid_argument msg -> (Protocol.error_line ?id ("invalid argument: " ^ msg), false)
      | exn -> (Protocol.error_line ?id ("internal error: " ^ Printexc.to_string exn), false)
    in
    Counters.observe (latency_hist op) ((Unix.gettimeofday () -. t0) *. 1000.);
    if String.length reply >= String.length {|{"error"|}
       && String.sub reply 0 8 = {|{"error"|}
    then state.errors <- state.errors + 1;
    (reply, stop)

(* ------------------------------------------------------------------ *)
(* Socket loop.                                                        *)

let max_request_bytes = 32 * 1024 * 1024

module Line_buffer = struct
  (* The unterminated tail of the stream. Only newly read bytes are
     searched for newlines and a completed line is copied out once, so a
     request costs time linear in its length however it is chunked. A
     line longer than [max_request_bytes] drops the tail and poisons the
     buffer: the connection is refused, not buffered without bound. *)
  type t = { tail : Buffer.t; mutable overflowed : bool }

  let create () = { tail = Buffer.create 4096; overflowed = false }
  let overflowed t = t.overflowed

  let rec newline chunk i stop =
    if i >= stop then -1 else if Bytes.unsafe_get chunk i = '\n' then i else newline chunk (i + 1) stop

  let feed t chunk off len =
    let stop = off + len in
    let rec go start acc =
      if t.overflowed then List.rev acc
      else
        let eol = match newline chunk start stop with -1 -> stop | i -> i in
        if Buffer.length t.tail + (eol - start) > max_request_bytes then begin
          t.overflowed <- true;
          Buffer.reset t.tail;
          List.rev acc
        end
        else if eol = stop then begin
          Buffer.add_subbytes t.tail chunk start (stop - start);
          List.rev acc
        end
        else
          let line =
            if Buffer.length t.tail = 0 then Bytes.sub_string chunk start (eol - start)
            else begin
              Buffer.add_subbytes t.tail chunk start (eol - start);
              let line = Buffer.contents t.tail in
              Buffer.reset t.tail;
              line
            end
          in
          go (eol + 1) (line :: acc)
    in
    go off []
end

type conn = { fd : Unix.file_descr; tail : Line_buffer.t }

let run ?on_ready config =
  let state = make_state config in
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  let close_conn fd =
    Hashtbl.remove conns fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let cleanup () =
    Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
    Hashtbl.reset conns;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink config.socket_path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;
  Option.iter (fun f -> f ()) on_ready;
  Noc_obs.Log.infof "serve: listening on %s" config.socket_path;
  let chunk = Bytes.create 65536 in
  let stop = ref false in
  while not !stop do
    let fds =
      listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    let readable, _, _ =
      try Unix.select fds [] [] (-1.0)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* Collect every complete request line that arrived this round,
       keeping (connection, line) pairs aligned so each reply goes back
       to the connection that asked, in request order. *)
    let batch = ref [] and refused = ref [] in
    List.iter
      (fun fd ->
        if fd = listen_fd then begin
          match Unix.accept listen_fd with
          | client, _ ->
            Hashtbl.replace conns client { fd = client; tail = Line_buffer.create () }
          | exception Unix.Unix_error _ -> ()
        end
        else
          match Hashtbl.find_opt conns fd with
          | None -> ()
          | Some conn -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> close_conn fd
            | n ->
              List.iter
                (fun line -> batch := (conn, line) :: !batch)
                (Line_buffer.feed conn.tail chunk 0 n);
              if Line_buffer.overflowed conn.tail then refused := conn :: !refused
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
            | exception Unix.Unix_error _ -> close_conn fd))
      readable;
    List.iter
      (fun (conn, line) ->
        let reply, is_shutdown = handle_line state line in
        if is_shutdown then stop := true;
        if Hashtbl.mem conns conn.fd then
          try Protocol.write_line conn.fd reply
          with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> close_conn conn.fd)
      (List.rev !batch);
    (* An oversized request is answered after the lines that preceded it
       on its connection, and only that connection is closed. *)
    List.iter
      (fun conn ->
        (try
           Protocol.write_line conn.fd
             (Protocol.error_line
                (Printf.sprintf
                   "request-too-large: a request line exceeds %d bytes; closing \
                    the connection"
                   max_request_bytes))
         with Unix.Unix_error _ -> ());
        close_conn conn.fd)
      !refused
  done
