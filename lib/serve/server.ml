module Json = Noc_obs.Json
module Counters = Noc_obs.Counters
module Decisions = Noc_obs.Decisions
module Ctg = Noc_ctg.Ctg
module Ctg_io = Noc_ctg.Ctg_io
module Edge = Noc_ctg.Edge
module Platform = Noc_noc.Platform
module Schedule = Noc_sched.Schedule
module Schedule_io = Noc_sched.Schedule_io
module Metrics = Noc_sched.Metrics
module Fault_set = Noc_fault.Fault_set
module Runner = Noc_experiments.Runner
module Certify = Noc_analysis.Certify
module Diagnostic = Noc_analysis.Diagnostic

type config = { socket_path : string; capacity : int; jobs : int option }

let default_config ~socket_path = { socket_path; capacity = 64; jobs = None }

(* A cached result. [ctg] is the graph the schedule's transaction labels
   refer to: a digest-equal request whose edges are declared in another
   order gets its transactions relabelled through the arc-endpoint map
   (see [relabel]). [resched] carries the incremental-rescheduling stats
   when the entry came from a [reschedule] request. *)
type entry = {
  ctg : Ctg.t;
  schedule : Schedule.t;
  text : string;
  energy : float;
  makespan : float;
  misses : int;
  decisions : string option;
  resched : (int * int * bool) option;  (* migrated, rerouted, full_rerun *)
  dvfs : (Noc_dvfs.Vf_table.t * Schedule_io.annotation array * int * float) option;
      (* ladder, per-task annotations, downclocked, reclaimed nJ — the
         entry's schedule/text are then the scaled (format v3) ones *)
}

type state = {
  config : config;
  platforms : (int * int, Platform.t * string) Hashtbl.t;
      (** Warm platform and its memoized content digest per mesh. *)
  platforms_lock : Mutex.t;
  schedules : entry Cache.t;
  kernels : Noc_eas.Kernel.t Cache.t;
  parses : (Ctg.t * string) Cache.t;
      (** [ctg_text -> (parsed graph, Ctg.digest)]: a warm cache hit
          costs neither the text parse nor the canonical-serialization
          digest, only the wire-JSON parse. Keyed by the raw request
          text, so only byte-identical texts short-circuit; a permuted
          but digest-equal text takes the slow path once and then hits
          the schedule cache through {!relabel}. *)
  refusals : (Ctg.t * string) Cache.t;
      (** [key -> (graph, message)]: the certification refusals of
          unfaulted schedules, under the key their success would have been
          cached under (see {!obtain}). *)
  requests : int Atomic.t;
  errors : int Atomic.t;
}

let make_state config =
  Counters.set_enabled true;
  {
    config;
    platforms = Hashtbl.create 4;
    platforms_lock = Mutex.create ();
    schedules = Cache.create ~capacity:config.capacity;
    kernels = Cache.create ~capacity:(max 8 config.capacity);
    parses = Cache.create ~capacity:(max 8 config.capacity);
    refusals = Cache.create ~capacity:(max 8 config.capacity);
    requests = Atomic.make 0;
    errors = Atomic.make 0;
  }

(* Same seed as the CLI front end: the daemon must serve bit-identical
   schedules to one-shot `nocsched schedule` runs. Routes are warmed
   before the platform is published so pool workers only ever read the
   memo. *)
let platform_for state (cols, rows) =
  Mutex.lock state.platforms_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock state.platforms_lock)
    (fun () ->
      match Hashtbl.find_opt state.platforms (cols, rows) with
      | Some pd -> pd
      | None ->
        let p = Platform.heterogeneous_mesh ~seed:42 ~cols ~rows () in
        Platform.warm_routes p;
        let pd = (p, Platform.digest p) in
        Hashtbl.replace state.platforms (cols, rows) pd;
        pd)

(* Parse-and-digest, memoized on the raw text (see [state.parses]). *)
let parse_graph state ctg_text =
  match Cache.find state.parses ctg_text with
  | Some v -> Ok v
  | None -> (
    match Ctg_io.of_string ctg_text with
    | Error _ as e -> e
    | Ok ctg ->
      let v = (ctg, Ctg.digest ctg) in
      Cache.add state.parses ctg_text v;
      Ok v)

let algo_wire algo = String.lowercase_ascii (Runner.algo_name algo)

(* ------------------------------------------------------------------ *)
(* Decision-log capture.                                               *)

(* Reproduces a fresh one-shot process: ambient run label "" and a
   sequence counter starting at 0 ([with_run] resets both). Global
   state, so decision-carrying requests are never fanned over the pool
   (see [parallel_ok]). *)
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
(* Cache-hit relabelling.                                              *)

let same_edges a b =
  Ctg.n_edges a = Ctg.n_edges b
  && Array.for_all2
       (fun (x : Edge.t) (y : Edge.t) ->
         x.src = y.src && x.dst = y.dst && x.volume = y.volume)
       (Ctg.edges a) (Ctg.edges b)

(* A digest-equal graph may still declare its edges in another order
   (edge ids are labels, not semantics — the digest sorts arcs by
   endpoints). The cached schedule is the right answer, but its
   transaction labels refer to the cached graph; remap each transaction
   to the request graph's id for the same (src, dst) arc. Ctg validation
   guarantees arcs are unique per endpoint pair, so the map is a
   bijection when the graphs really are the same problem; any mismatch
   (an FNV collision) falls back to a fresh computation. *)
(* Serialise with the entry's DVFS annotations when it carries them, so
   a relabelled scaled entry keeps its format-v3 text. *)
let entry_text (entry : entry) schedule =
  match entry.dvfs with
  | Some (_, annotations, _, _) -> Schedule_io.to_string ~dvfs:annotations schedule
  | None -> Schedule_io.to_string schedule

let relabel (entry : entry) (ctg : Ctg.t) =
  if same_edges entry.ctg ctg then Some (entry.schedule, entry.text, entry.decisions)
  else if Ctg.n_edges entry.ctg <> Ctg.n_edges ctg then None
  else
    let by_arc = Hashtbl.create (Ctg.n_edges ctg) in
    Array.iter
      (fun (e : Edge.t) -> Hashtbl.replace by_arc (e.src, e.dst) e)
      (Ctg.edges ctg);
    let out = Array.make (Ctg.n_edges ctg) None in
    try
      Array.iter
        (fun (tr : Schedule.transaction) ->
          let cached_edge = Ctg.edge entry.ctg tr.edge in
          match Hashtbl.find_opt by_arc (cached_edge.src, cached_edge.dst) with
          | Some e when e.volume = cached_edge.volume && out.(e.id) = None ->
            out.(e.id) <- Some { tr with edge = e.id }
          | Some _ | None -> raise Exit)
        (Schedule.transactions entry.schedule);
      let transactions = Array.map (function Some t -> t | None -> raise Exit) out in
      let schedule =
        Schedule.make ~placements:(Schedule.placements entry.schedule) ~transactions
      in
      (* Decision records name tasks and PEs, never edge ids, so they
         survive the relabelling unchanged — as do DVFS annotations. *)
      Some (schedule, entry_text entry schedule, entry.decisions)
    with Exit | Invalid_argument _ -> None

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)

let kernel_for state platform ctg ~ctg_digest ~platform_digest =
  let key = ctg_digest ^ ":" ^ platform_digest in
  match Cache.find state.kernels key with
  | Some k -> k
  | None ->
    let k = Noc_eas.Kernel.build platform ctg in
    Cache.add state.kernels key k;
    k

let certification_error diags =
  let errors, warnings, _ = Diagnostic.count diags in
  if errors = 0 then None
  else
    Some
      (Printf.sprintf "schedule failed certification: %d error(s), %d warning(s); first: %s"
         errors warnings
         (match
            List.find_opt
              (fun d -> d.Diagnostic.severity = Diagnostic.Error)
              diags
          with
         | Some d -> Format.asprintf "%a" Diagnostic.pp d
         | None -> "?"))

(* A full (cache-miss) computation: schedule, derive metrics, certify.
   Kernels are reused across runs — [Kernel.build] is deterministic and
   the kernel is read-only after construction, so reuse is bit-neutral. *)
let raw_schedule state platform ctg algo ~digests =
  let ctg_digest, platform_digest = digests in
  match algo with
  | Runner.Eas ->
    (Noc_eas.Eas.schedule
       ~kernel:(kernel_for state platform ctg ~ctg_digest ~platform_digest)
       platform ctg)
      .Noc_eas.Eas.schedule
  | Runner.Eas_base ->
    (Noc_eas.Eas.schedule ~repair:false
       ~kernel:(kernel_for state platform ctg ~ctg_digest ~platform_digest)
       platform ctg)
      .Noc_eas.Eas.schedule
  | Runner.Edf -> Runner.schedule_of Runner.Edf platform ctg

let compute_fresh state platform ctg algo ~digests ~want_decisions =
  let run () = raw_schedule state platform ctg algo ~digests in
  let schedule, decisions =
    if want_decisions then
      let s, d = capture_decisions run in
      (s, Some d)
    else (run (), None)
  in
  let metrics = Metrics.compute platform ctg schedule in
  let diags =
    Certify.check ~claimed_energy:metrics.Metrics.total_energy platform ctg schedule
  in
  match certification_error diags with
  | Some msg -> Error msg
  | None ->
    Ok
      {
        ctg;
        schedule;
        text = Schedule_io.to_string schedule;
        energy = metrics.Metrics.total_energy;
        makespan = metrics.Metrics.makespan;
        misses = Metrics.miss_count metrics;
        decisions;
        resched = None;
        dvfs = None;
      }

(* The memoised schedule for (algo, ctg, platform) with no faults.
   Returns the entry (relabelled to the request's graph), whether it was
   served from the cache, and the cache key; or the memoised refusal. A
   hit that needs a decision log the entry does not carry is recomputed
   in full (and the richer entry replaces the cached one). *)
let empty_fault_digest = Digest.fault_set Fault_set.empty

let obtain state platform ctg algo ~digests ~want_decisions =
  let ctg_digest, platform_digest = digests in
  let key =
    Digest.make ~algo ~ctg_digest ~platform_digest
      ~fault_digest:empty_fault_digest ()
  in
  (* A certification refusal is a pure function of the key and the
     graph, so it is memoised under [key] and replayed as the same
     message. The graph is kept so that a digest-equal graph declaring
     its edges in another order, whose message could name other edge
     ids, is computed afresh. *)
  let fresh () =
    match Cache.find state.refusals key with
    | Some (refused, msg) when same_edges refused ctg -> Error msg
    | Some _ | None -> (
      match compute_fresh state platform ctg algo ~digests ~want_decisions with
      | Error msg as e ->
        Cache.add state.refusals key (ctg, msg);
        e
      | Ok entry ->
        Cache.add state.schedules key entry;
        Ok (entry, false, key))
  in
  match Cache.find state.schedules key with
  | None -> fresh ()
  | Some entry -> (
    match relabel entry ctg with
    | None -> fresh ()
    | Some (schedule, text, decisions) ->
      if want_decisions && decisions = None then fresh ()
      else Ok ({ entry with ctg; schedule; text; decisions }, true, key))

(* ------------------------------------------------------------------ *)
(* Request handlers.                                                   *)

let num n = Json.Number n
let int_num n = Json.Number (float_of_int n)

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

let with_graph state ?id ~ctg_text ~mesh k =
  match parse_graph state ctg_text with
  | Error msg -> Protocol.error_line ?id ("ctg: " ^ msg)
  | Ok (ctg, ctg_digest) ->
    let platform, platform_digest = platform_for state mesh in
    if Ctg.n_pes ctg <> Platform.n_pes platform then
      Protocol.error_line ?id
        (Printf.sprintf "graph expects %d PEs but mesh %s has %d" (Ctg.n_pes ctg)
           (Protocol.mesh_name mesh) (Platform.n_pes platform))
    else k platform ctg ~digests:(ctg_digest, platform_digest)

let decisions_field ~decisions (entry : entry) fields =
  match entry.decisions with
  | Some d when decisions -> fields @ [ ("decisions", Json.String d) ]
  | Some _ | None -> fields

(* DVFS slack reclamation over the committed base schedule. The scaled
   entry lives under its own cache key ({!Digest.vf_table} segment), so
   a [--dvfs] request never aliases a cached unscaled schedule and vice
   versa. When a decision log is wanted the EAS placements and the
   downclocks must share one run label for CLI bit-parity, so the fresh
   path wraps schedule + reclaim in a single [capture_decisions];
   otherwise the base comes through the normal (possibly cached)
   [obtain] path and only the cheap reclamation pass runs. *)
let handle_dvfs_schedule state ?id ~algo ~decisions ~table platform ctg ~digests =
  let ctg_digest, platform_digest = digests in
  let dkey =
    Digest.make ~dvfs_digest:(Digest.vf_table table) ~algo ~ctg_digest
      ~platform_digest ~fault_digest:empty_fault_digest ()
  in
  let reply ~cached ~base_cached (entry : entry) =
    let table, downclocked, reclaimed =
      match entry.dvfs with
      | Some (t, _, d, rj) -> (t, d, rj)
      | None -> (table, 0, 0.)
    in
    schedule_fields ~cached ~key:dkey ~algo entry
    @ [
        ("dvfs", Json.Bool true);
        ("vf_levels", Json.String (Noc_dvfs.Vf_table.to_string table));
        ("downclocked", int_num downclocked);
        ("reclaimed", num reclaimed);
        ("base_cached", Json.Bool base_cached);
      ]
    |> decisions_field ~decisions entry
    |> Protocol.ok_line ?id ~op:"schedule"
  in
  let fresh () =
    let base_result =
      if decisions then (
        let (base, r), jsonl =
          capture_decisions (fun () ->
              let base = raw_schedule state platform ctg algo ~digests in
              (base, Noc_dvfs.Reclaim.run ~table ctg base))
        in
        let metrics = Metrics.compute platform ctg base in
        match
          certification_error
            (Certify.check ~claimed_energy:metrics.Metrics.total_energy platform
               ctg base)
        with
        | Some msg -> Error msg
        | None -> Ok (base, metrics.Metrics.total_energy, false, Some jsonl, r))
      else
        match obtain state platform ctg algo ~digests ~want_decisions:false with
        | Error msg -> Error msg
        | Ok (base_entry, base_cached, _) ->
          Ok
            ( base_entry.schedule,
              base_entry.energy,
              base_cached,
              None,
              Noc_dvfs.Reclaim.run ~table ctg base_entry.schedule )
    in
    match base_result with
    | Error msg -> Protocol.error_line ?id msg
    | Ok (base, base_energy, base_cached, dlog, r) -> (
      let annotations = r.Noc_dvfs.Reclaim.annotations in
      let scaled = r.Noc_dvfs.Reclaim.schedule in
      match
        certification_error
          (Certify.check_scaled
             ~ratios:(Noc_dvfs.Vf_table.ratios table)
             ~annotations ~base platform ctg scaled)
      with
      | Some msg -> Protocol.error_line ?id ("dvfs: " ^ msg)
      | None ->
        let reclaimed = Noc_dvfs.Reclaim.reclaimed r in
        let entry =
          {
            ctg;
            schedule = scaled;
            text = Schedule_io.to_string ~dvfs:annotations scaled;
            energy = base_energy -. reclaimed;
            makespan = Schedule.makespan scaled;
            misses = Metrics.miss_count (Metrics.compute platform ctg scaled);
            decisions = dlog;
            resched = None;
            dvfs = Some (table, annotations, r.Noc_dvfs.Reclaim.downclocked, reclaimed);
          }
        in
        Cache.add state.schedules dkey entry;
        reply ~cached:false ~base_cached entry)
  in
  match Cache.find state.schedules dkey with
  | None -> fresh ()
  | Some entry -> (
    match relabel entry ctg with
    | None -> fresh ()
    | Some (schedule, text, dlog) ->
      if decisions && dlog = None then fresh ()
      else
        reply ~cached:true ~base_cached:true
          { entry with ctg; schedule; text; decisions = dlog })

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
  match Fault_set.of_strings faults with
  | Error msg -> Protocol.error_line ?id ("faults: " ^ msg)
  | Ok faults -> (
    with_graph state ?id ~ctg_text ~mesh @@ fun platform ctg ~digests ->
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
          ]))

let resched_fields = function
  | None -> []
  | Some (migrated, rerouted, full_rerun) ->
    [
      ("migrated", int_num migrated);
      ("rerouted", int_num rerouted);
      ("full_rerun", Json.Bool full_rerun);
    ]

let handle_reschedule state ?id ~ctg_text ~mesh ~algo ~faults () =
  match Fault_set.of_strings faults with
  | Error msg -> Protocol.error_line ?id ("faults: " ^ msg)
  | Ok faults -> (
    with_graph state ?id ~ctg_text ~mesh @@ fun platform ctg ~digests ->
    let ctg_digest, platform_digest = digests in
    let full_key =
      Digest.make ~algo ~ctg_digest ~platform_digest
        ~fault_digest:(Digest.fault_set faults) ()
    in
    let fresh () =
      match obtain state platform ctg algo ~digests ~want_decisions:false with
      | Error msg -> Protocol.error_line ?id ("base schedule: " ^ msg)
      | Ok (base, base_cached, _) -> (
        match Noc_eas.Fault_resched.run platform ctg ~faults base.schedule with
        | exception Invalid_argument msg ->
          Protocol.error_line ?id ("reschedule: " ^ msg)
        | outcome ->
          let schedule = outcome.Noc_eas.Fault_resched.schedule in
          (* Detour routes legitimately diverge from the deterministic-route
             energy of Metrics, so the reply carries the certifier's own
             Eq. 3 total and no claimed energy is cross-checked. *)
          let diags = Certify.check platform ctg schedule in
          (match certification_error diags with
          | Some msg -> Protocol.error_line ?id msg
          | None ->
            let stats = outcome.Noc_eas.Fault_resched.stats in
            let entry =
              {
                ctg;
                schedule;
                text = Schedule_io.to_string schedule;
                energy = Certify.energy platform ctg schedule;
                makespan = Schedule.makespan schedule;
                misses = stats.Noc_eas.Fault_resched.misses;
                decisions = None;
                dvfs = None;
                resched =
                  Some
                    ( stats.Noc_eas.Fault_resched.migrated_tasks,
                      stats.Noc_eas.Fault_resched.rerouted_transactions,
                      stats.Noc_eas.Fault_resched.used_full_rerun );
              }
            in
            Cache.add state.schedules full_key entry;
            Protocol.ok_line ?id ~op:"reschedule"
              (schedule_fields ~cached:false ~key:full_key ~algo entry
              @ resched_fields entry.resched
              @ [ ("base_cached", Json.Bool base_cached) ])))
    in
    match Cache.find state.schedules full_key with
    | None -> fresh ()
    | Some entry -> (
      match relabel entry ctg with
      | None -> fresh ()
      | Some (schedule, text, _) ->
        let entry = { entry with ctg; schedule; text } in
        Protocol.ok_line ?id ~op:"reschedule"
          (schedule_fields ~cached:true ~key:full_key ~algo entry
          @ resched_fields entry.resched)))

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
      ("requests", int_num (Atomic.get state.requests));
      ("errors", int_num (Atomic.get state.errors));
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
  Atomic.incr state.requests;
  match Protocol.parse_request line with
  | Error msg ->
    Atomic.incr state.errors;
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
    then Atomic.incr state.errors;
    (reply, stop)

(* Requests safe to fan over the domain pool: pure schedule lookups.
   Decision capture mutates the global decision log, and fault-carrying
   requests walk lazily-filled degraded route tables — both stay serial. *)
let parallel_ok line =
  match Protocol.parse_request line with
  | Ok (Protocol.Schedule { decisions = false; _ }, _) -> true
  | Ok ((Protocol.Schedule _ | Protocol.Simulate _ | Protocol.Reschedule _
        | Protocol.Stats | Protocol.Shutdown), _)
  | Error _ -> false

let handle_batch state lines =
  match state.config.jobs with
  | Some jobs when jobs > 1 && List.length lines > 1 && List.for_all parallel_ok lines
    -> Noc_util.Pool.map_list ~jobs (handle_line state) lines
  | Some _ | None -> List.map (handle_line state) lines

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

let write_all fd s =
  let bytes = Bytes.of_string s in
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then
      let n = Unix.write fd bytes off (len - off) in
      go (off + n)
  in
  go 0

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
    let batch = List.rev !batch in
    (match batch with
    | [] -> ()
    | _ :: _ ->
      let replies = handle_batch state (List.map snd batch) in
      List.iter2
        (fun (conn, _) (reply, is_shutdown) ->
          if is_shutdown then stop := true;
          if Hashtbl.mem conns conn.fd then
            try write_all conn.fd (reply ^ "\n")
            with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              close_conn conn.fd)
        batch replies);
    (* An oversized request is answered after the lines that preceded it
       on its connection, and only that connection is closed. *)
    List.iter
      (fun conn ->
        (try
           write_all conn.fd
             (Protocol.error_line
                (Printf.sprintf
                   "request-too-large: a request line exceeds %d bytes; closing \
                    the connection"
                   max_request_bytes)
             ^ "\n")
         with Unix.Unix_error _ -> ());
        close_conn conn.fd)
      !refused
  done
