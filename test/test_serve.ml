(* Tests for the scheduling daemon (lib/serve): SIEVE cache semantics
   (against a list model), the refusal memo, protocol parsing and
   structured errors, cache-hit bit-identity (a graph whose edges are
   declared in another order is another problem), certification of
   served schedules, concurrent clients against a live daemon, and a
   differential test against one-shot `nocsched schedule` output. *)

module Cache = Noc_serve.Cache
module Protocol = Noc_serve.Protocol
module Server = Noc_serve.Server
module Client = Noc_serve.Client
module Json = Noc_obs.Json
module Ctg = Noc_ctg.Ctg
module Ctg_io = Noc_ctg.Ctg_io
module Edge = Noc_ctg.Edge
module Runner = Noc_experiments.Runner

let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 ()

(* The one-shot EAS schedule a daemon reply must reproduce. *)
let eas_schedule g = (Noc_eas.Eas.schedule platform g).Noc_eas.Eas.schedule

let graph ?(tasks = 20) ?(tightness = Noc_tgff.Params.default.deadline_tightness) seed =
  let params =
    { Noc_tgff.Params.default with n_tasks = tasks; deadline_tightness = tightness }
  in
  Noc_tgff.Generate.generate ~params ~platform ~seed

(* [g] with its edges declared in reverse order, ids re-assigned. *)
let reversed g =
  let edges = Ctg.edges g and n = Ctg.n_edges g in
  Ctg.make_exn ~tasks:(Ctg.tasks g)
    ~edges:
      (Array.init n (fun i ->
           let (e : Edge.t) = edges.(n - 1 - i) in
           Edge.make ~id:i ~src:e.Edge.src ~dst:e.Edge.dst ~volume:e.Edge.volume))

let mk_state ?(capacity = 64) () = Server.make_state { Server.socket_path = "unused"; capacity }

let schedule_line ?(algo = Runner.Eas) ?(decisions = false) ?dvfs ?id ctg =
  Protocol.request_to_line ?id
    (Protocol.Schedule
       { ctg_text = Ctg_io.to_string ctg; mesh = (4, 4); algo; decisions; dvfs })

let reschedule_line ?(algo = Runner.Eas) ?id ~faults ctg =
  Protocol.request_to_line ?id
    (Protocol.Reschedule
       { ctg_text = Ctg_io.to_string ctg; mesh = (4, 4); algo; faults })

let parse_reply reply =
  match Json.parse reply with
  | Ok obj -> obj
  | Error msg -> Alcotest.failf "unparseable reply %S: %s" reply msg

let is_ok obj = Json.member "ok" obj = Some (Json.Bool true)

let str_member name obj =
  match Json.member name obj with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "reply lacks string field %S" name

let bool_member name obj =
  match Json.member name obj with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "reply lacks bool field %S" name

let num_member name obj =
  match Json.member name obj with
  | Some (Json.Number n) -> n
  | _ -> Alcotest.failf "reply lacks number field %S" name

let expect_ok state line =
  let reply, stop = Server.handle_line state line in
  Alcotest.(check bool) "not a shutdown" false stop;
  let obj = parse_reply reply in
  if not (is_ok obj) then Alcotest.failf "request refused: %s" reply;
  obj

let expect_error state line =
  let reply, stop = Server.handle_line state line in
  Alcotest.(check bool) "not a shutdown" false stop;
  let obj = parse_reply reply in
  Alcotest.(check bool) "ok is false" false (is_ok obj);
  Alcotest.(check string) "schema present" Protocol.schema
    (str_member "schema" obj);
  str_member "error" obj

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_basics () =
  let c = Cache.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Cache.capacity c);
  Alcotest.(check bool) "miss on empty" true (Cache.find c "a" = None);
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Alcotest.(check bool) "hit a" true (Cache.find c "a" = Some 1);
  (* b is now least recently used: inserting c evicts it. *)
  Cache.add c "c" 3;
  Alcotest.(check int) "still at capacity" 2 (Cache.length c);
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "a survived" true (Cache.find c "a" = Some 1);
  Alcotest.(check bool) "c present" true (Cache.find c "c" = Some 3);
  Alcotest.(check int) "evictions" 1 (Cache.evictions c);
  Alcotest.(check int) "hits" 3 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c);
  (* Replacing an existing key never evicts. *)
  Cache.add c "c" 30;
  Alcotest.(check int) "replace keeps both" 2 (Cache.length c);
  Alcotest.(check int) "replace does not evict" 1 (Cache.evictions c);
  Alcotest.(check bool) "replaced value" true (Cache.find c "c" = Some 30);
  Alcotest.(check (list string)) "MRU order" [ "c"; "a" ] (Cache.keys c)

(* A hit protects an entry from the next eviction however old it is:
   LRU would evict [a] here, the least recently used entry. *)
let test_cache_keeps_reused_entry () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Alcotest.(check bool) "hit a" true (Cache.find c "a" = Some 1);
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  Alcotest.(check (list string)) "b evicted, a survived" [ "c"; "a" ] (Cache.keys c);
  Alcotest.(check bool) "a still served" true (Cache.find c "a" = Some 1);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c)

(* SIEVE spelled out over a list, oldest entry first, with the hand as
   an index into it. *)
module Sieve_model = struct
  type t = {
    capacity : int;
    mutable queue : (string * int * bool ref) list;
    mutable hand : int;
    mutable evictions : int;
  }

  let create capacity = { capacity; queue = []; hand = 0; evictions = 0 }

  let find t key =
    List.find_map
      (fun (k, v, visited) ->
        if k = key then (
          visited := true;
          Some v)
        else None)
      t.queue

  let evict t =
    let n = List.length t.queue in
    let rec sweep i =
      let i = if i >= n then 0 else i in
      let _, _, visited = List.nth t.queue i in
      if !visited then (
        visited := false;
        sweep (i + 1))
      else i
    in
    let victim = sweep t.hand in
    t.queue <- List.filteri (fun i _ -> i <> victim) t.queue;
    t.hand <- (if victim >= n - 1 then 0 else victim);
    t.evictions <- t.evictions + 1

  let add t key value =
    if List.exists (fun (k, _, _) -> k = key) t.queue then
      t.queue <-
        List.map
          (fun ((k, _, _) as e) -> if k = key then (k, value, ref true) else e)
          t.queue
    else (
      if List.length t.queue >= t.capacity then evict t;
      t.queue <- t.queue @ [ (key, value, ref false) ])

  let keys t = List.rev_map (fun (k, _, _) -> k) t.queue
end

let test_cache_matches_sieve_model () =
  let rng = Noc_util.Prng.create ~seed:20 in
  for capacity = 1 to 6 do
    let c = Cache.create ~capacity and m = Sieve_model.create capacity in
    for step = 1 to 2000 do
      let key = string_of_int (Noc_util.Prng.int rng ~bound:(2 * capacity + 2)) in
      if Noc_util.Prng.int rng ~bound:2 = 0 then
        Alcotest.(check (option int))
          (Printf.sprintf "capacity %d step %d: find %s" capacity step key)
          (Sieve_model.find m key) (Cache.find c key)
      else (
        Cache.add c key step;
        Sieve_model.add m key step);
      Alcotest.(check (list string))
        (Printf.sprintf "capacity %d step %d: keys" capacity step)
        (Sieve_model.keys m) (Cache.keys c)
    done;
    Alcotest.(check int) "evictions" m.Sieve_model.evictions (Cache.evictions c)
  done

let test_cache_invalid_capacity () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (try
       ignore (Cache.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_protocol_roundtrip () =
  let requests =
    [
      Protocol.Schedule
        {
          ctg_text = "x\ny";
          mesh = (4, 4);
          algo = Runner.Eas;
          decisions = true;
          dvfs = None;
        };
      Protocol.Schedule
        {
          ctg_text = "x";
          mesh = (4, 4);
          algo = Runner.Eas;
          decisions = false;
          dvfs = Some Noc_dvfs.Vf_table.default;
        };
      Protocol.Simulate
        {
          ctg_text = "x";
          mesh = (3, 3);
          algo = Runner.Edf;
          faults = [ "pe:1"; "link:3-7" ];
          self_timed = true;
        };
      Protocol.Reschedule
        { ctg_text = "x"; mesh = (8, 8); algo = Runner.Eas_base; faults = [ "pe:2" ] };
      Protocol.Stats;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Protocol.parse_request (Protocol.request_to_line ~id:"r1" r) with
      | Ok (r', id) ->
        Alcotest.(check bool)
          (Protocol.op_name r ^ " round-trips") true (r = r');
        Alcotest.(check (option string)) "id echoed" (Some "r1") id
      | Error msg -> Alcotest.failf "%s failed to re-parse: %s" (Protocol.op_name r) msg)
    requests

let test_protocol_errors () =
  let bad line =
    match Protocol.parse_request line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error _ -> ()
  in
  bad "{oops";
  bad "42";
  bad {|{"op": "frobnicate"}|};
  bad {|{"op": "schedule"}|};
  (* a schedule without a ctg *)
  bad {|{"op": "schedule", "ctg": "x", "mesh": "4x"}|}

(* ------------------------------------------------------------------ *)
(* Server: structured errors *)

let test_malformed_requests () =
  let state = mk_state () in
  let err = expect_error state "{not json" in
  Alcotest.(check bool) "names the parse failure" true (String.length err > 0);
  ignore (expect_error state {|{"op": "teleport"}|});
  let err =
    expect_error state
      (Protocol.request_to_line
         (Protocol.Schedule
            {
              ctg_text = "garbage";
              mesh = (4, 4);
              algo = Runner.Eas;
              decisions = false;
              dvfs = None;
            }))
  in
  Alcotest.(check bool) "ctg error prefixed" true
    (String.length err >= 4 && String.sub err 0 4 = "ctg:");
  let err =
    expect_error state
      (Protocol.request_to_line
         (Protocol.Reschedule
            {
              ctg_text = Ctg_io.to_string (graph 0);
              mesh = (4, 4);
              algo = Runner.Eas;
              faults = [ "pe:bogus" ];
            }))
  in
  Alcotest.(check bool) "fault error prefixed" true
    (String.length err >= 7 && String.sub err 0 7 = "faults:");
  (* A mesh mismatch is an error reply, not a crash. *)
  ignore
    (expect_error state
       (Protocol.request_to_line
          (Protocol.Schedule
             {
               ctg_text = Ctg_io.to_string (graph 0);
               mesh = (3, 3);
               algo = Runner.Eas;
               decisions = false;
               dvfs = None;
             })))

(* ------------------------------------------------------------------ *)
(* Server: cache behaviour and bit-identity *)

let certify_reply_schedule ?ctg obj =
  let ctg =
    match ctg with
    | Some g -> g
    | None -> Alcotest.fail "certify_reply_schedule needs the graph"
  in
  match Noc_sched.Schedule_io.of_string_full platform ctg (str_member "schedule" obj) with
  | Error msg -> Alcotest.failf "reply schedule does not parse: %s" msg
  | Ok (schedule, _) ->
    let diags = Noc_analysis.Certify.check platform ctg schedule in
    let errors, _, _ = Noc_analysis.Diagnostic.count diags in
    Alcotest.(check int) "certifier errors" 0 errors

let test_cached_hit_bit_identity () =
  let state = mk_state () in
  let g = graph 1 in
  let line = schedule_line g in
  let first = expect_ok state line in
  let second = expect_ok state line in
  Alcotest.(check bool) "first is a miss" false (bool_member "cached" first);
  Alcotest.(check bool) "second is a hit" true (bool_member "cached" second);
  Alcotest.(check string) "schedules bit-identical"
    (str_member "schedule" first) (str_member "schedule" second);
  Alcotest.(check string) "same cache key" (str_member "key" first)
    (str_member "key" second);
  Alcotest.(check bool) "certified" true (bool_member "certified" second);
  (* The daemon's schedule is the one-shot scheduler's schedule. *)
  let direct = eas_schedule g in
  Alcotest.(check string) "identical to direct run"
    (Noc_sched.Schedule_io.to_string direct)
    (str_member "schedule" first);
  certify_reply_schedule ~ctg:g second

(* The communication scheduler breaks ties between a task's incoming
   transactions by edge id, so a graph whose edges are declared in
   reverse order is another problem: on this graph it gets another
   schedule. The daemon must compute it afresh, not serve the forward
   graph's cached schedule. *)
let test_reversed_edges_miss () =
  let g = graph ~tasks:60 5 in
  let r = reversed g in
  let state = mk_state () in
  ignore (expect_ok state (schedule_line g));
  let reply = expect_ok state (schedule_line r) in
  Alcotest.(check bool) "reversed request is a miss" false (bool_member "cached" reply);
  let direct = eas_schedule r in
  Alcotest.(check string) "identical to scheduling the reversed graph directly"
    (Noc_sched.Schedule_io.to_string direct)
    (str_member "schedule" reply);
  certify_reply_schedule ~ctg:r reply

(* The parse cache is keyed by the request's raw text, the schedule
   cache by the graph's content digest. An [eas-base] request for the
   graph of an earlier [eas] request, with one extra comment line,
   misses the parse and schedule caches: it must be served exactly as a
   fresh daemon serves it. So must the plain text, parsed by an [edf]
   request, once an [eas] request has scheduled the commented text. *)
let test_another_text_served_fresh () =
  let g = graph ~tasks:40 6 in
  let line algo ctg_text =
    Protocol.request_to_line
      (Protocol.Schedule { ctg_text; mesh = (4, 4); algo; decisions = false; dvfs = None })
  in
  let plain = Ctg_io.to_string g in
  let commented = "# the same graph, another text\n" ^ plain in
  let served_fresh state request =
    let reply, _ = Server.handle_line state request in
    let obj = parse_reply reply in
    if not (is_ok obj) then Alcotest.failf "request refused: %s" reply;
    Alcotest.(check bool) "a schedule-cache miss" false (bool_member "cached" obj);
    Alcotest.(check string) "a fresh daemon's reply"
      (fst (Server.handle_line (mk_state ()) request))
      reply
  in
  let state = mk_state () in
  ignore (expect_ok state (line Runner.Eas plain));
  served_fresh state (line Runner.Eas_base commented);
  let state = mk_state () in
  ignore (expect_ok state (line Runner.Edf plain));
  ignore (expect_ok state (line Runner.Eas commented));
  served_fresh state (line Runner.Eas_base plain)

let test_eviction_at_capacity () =
  let state = mk_state ~capacity:1 () in
  let ga = graph 2 and gb = graph 3 in
  let r1 = expect_ok state (schedule_line ga) in
  Alcotest.(check bool) "miss" false (bool_member "cached" r1);
  let r2 = expect_ok state (schedule_line ga) in
  Alcotest.(check bool) "hit while resident" true (bool_member "cached" r2);
  ignore (expect_ok state (schedule_line gb));
  let r3 = expect_ok state (schedule_line ga) in
  Alcotest.(check bool) "evicted by gb, recomputed" false (bool_member "cached" r3);
  Alcotest.(check string) "recomputation is bit-identical"
    (str_member "schedule" r1) (str_member "schedule" r3);
  let stats = expect_ok state (Protocol.request_to_line Protocol.Stats) in
  match Json.member "cache" stats with
  | Some cache ->
    Alcotest.(check bool) "evictions counted" true (num_member "evictions" cache >= 2.)
  | None -> Alcotest.fail "stats reply lacks cache object"

let test_reschedule_incremental () =
  let state = mk_state () in
  let g = graph 4 in
  ignore (expect_ok state (schedule_line g));
  let line = reschedule_line ~faults:[ "pe:1" ] g in
  let r1 = expect_ok state line in
  Alcotest.(check bool) "fresh reschedule" false (bool_member "cached" r1);
  Alcotest.(check bool) "base came from the cache" true
    (bool_member "base_cached" r1);
  Alcotest.(check bool) "certified" true (bool_member "certified" r1);
  (* Stats of the incremental ladder are reported. *)
  ignore (num_member "migrated" r1);
  ignore (num_member "rerouted" r1);
  let r2 = expect_ok state line in
  Alcotest.(check bool) "repeat reschedule hits the cache" true
    (bool_member "cached" r2);
  Alcotest.(check string) "bit-identical on the hit" (str_member "schedule" r1)
    (str_member "schedule" r2);
  (* The served schedule equals running the ladder directly. *)
  let faults =
    match Noc_fault.Fault_set.of_strings [ "pe:1" ] with
    | Ok f -> f
    | Error msg -> Alcotest.fail msg
  in
  let base = eas_schedule g in
  let direct = (Noc_eas.Fault_resched.run platform g ~faults base).Noc_eas.Fault_resched.schedule in
  Alcotest.(check string) "identical to the direct ladder"
    (Noc_sched.Schedule_io.to_string direct)
    (str_member "schedule" r1)

let test_simulate_request () =
  let state = mk_state () in
  let g = graph 5 in
  let line =
    Protocol.request_to_line
      (Protocol.Simulate
         {
           ctg_text = Ctg_io.to_string g;
           mesh = (4, 4);
           algo = Runner.Eas;
           faults = [];
           self_timed = false;
         })
  in
  let r = expect_ok state line in
  ignore (num_member "sim_misses" r);
  ignore (num_member "lost_tasks" r);
  ignore (num_member "waiting_time" r);
  ignore (num_member "realised_makespan" r);
  (* The simulate request warms the schedule cache too. *)
  let r2 = expect_ok state (schedule_line g) in
  Alcotest.(check bool) "schedule after simulate is a hit" true
    (bool_member "cached" r2)

(* Fault specs naming elements the mesh lacks are refused like
   malformed specs, and a fault set that fails every PE is a named
   reschedule error. *)
let test_fault_specs_checked () =
  let state = mk_state () in
  let g = graph 5 in
  let simulate faults =
    Protocol.request_to_line
      (Protocol.Simulate
         { ctg_text = Ctg_io.to_string g; mesh = (4, 4); algo = Runner.Eas; faults; self_timed = false })
  in
  List.iter
    (fun (line, spec) ->
      let msg = expect_error state line in
      Alcotest.(check bool) (msg ^ " names " ^ spec) true
        (String.starts_with ~prefix:(Printf.sprintf "faults: fault %S: " spec) msg))
    [
      (simulate [ "pe:99" ], "pe:99");
      (simulate [ "link:0-5" ], "link:0-5");
      (reschedule_line ~faults:[ "pe:2"; "pe:99" ] g, "pe:99");
    ];
  let msg = expect_error state (reschedule_line ~faults:(List.init 16 (Printf.sprintf "pe:%d")) g) in
  Alcotest.(check string) "every PE failed" "reschedule: Fault_resched.run: every PE is failed" msg

let test_stats_shape () =
  let state = mk_state () in
  ignore (expect_ok state (schedule_line (graph 6)));
  ignore (expect_error state "{broken");
  let stats = expect_ok state (Protocol.request_to_line Protocol.Stats) in
  Alcotest.(check bool) "requests counted" true (num_member "requests" stats >= 2.);
  Alcotest.(check bool) "errors counted" true (num_member "errors" stats >= 1.);
  (match Json.member "latency" stats with
  | Some (Json.Obj fields) ->
    let schedule_hist =
      match List.assoc_opt "serve/schedule" fields with
      | Some h -> h
      | None -> Alcotest.fail "no serve/schedule histogram"
    in
    Alcotest.(check bool) "histogram has samples" true
      (num_member "count" schedule_hist >= 1.);
    ignore (num_member "p50_ms" schedule_hist);
    ignore (num_member "p99_ms" schedule_hist)
  | _ -> Alcotest.fail "stats reply lacks latency object");
  match Json.member "parse_cache" stats with
  | Some _ -> ()
  | None -> Alcotest.fail "stats reply lacks parse_cache object"

(* ------------------------------------------------------------------ *)
(* Server: the refusal memo *)

(* 40 tasks at a deadline tightness of 0.5: EAS misses deadlines after
   capped repair, and the certifier refuses the schedule. *)
let infeasible_graph () = graph ~tasks:40 ~tightness:0.5 8

let refusal_cache state =
  let stats = expect_ok state (Protocol.request_to_line Protocol.Stats) in
  match Json.member "refusal_cache" stats with
  | Some c -> (int_of_float (num_member "hits" c), int_of_float (num_member "entries" c))
  | None -> Alcotest.fail "stats reply lacks refusal_cache object"

let refuse state line =
  let reply, _ = Server.handle_line state line in
  Alcotest.(check bool) "refused" false (is_ok (parse_reply reply));
  reply

let test_refusal_memo_replays () =
  let state = mk_state () in
  let line = schedule_line ~id:"again" (infeasible_graph ()) in
  let evaluations = Noc_obs.Counters.counter "eas.repair.evaluations" in
  let before = Noc_obs.Counters.value evaluations in
  let first = refuse state line in
  let after_first = Noc_obs.Counters.value evaluations in
  Alcotest.(check bool) "the first refusal ran repair" true (after_first > before);
  let second = refuse state line in
  Alcotest.(check string) "byte-identical refusals" first second;
  Alcotest.(check int) "the scheduler did not run again" after_first
    (Noc_obs.Counters.value evaluations);
  Alcotest.(check (pair int int)) "one memo hit, one entry" (1, 1) (refusal_cache state)

let test_refusal_memo_keys () =
  let state = mk_state () in
  let g = infeasible_graph () in
  let plain = str_member "error" (parse_reply (refuse state (schedule_line g))) in
  (* Another algorithm is another key. *)
  let _ = Server.handle_line state (schedule_line ~algo:Runner.Edf g) in
  Alcotest.(check (pair int int)) "edf is not answered from the memo" (0, 2)
    (refusal_cache state);
  (* A reschedule is refused for its base schedule, which it finds in
     the memo; it memoises nothing under its own key. *)
  let resched = reschedule_line ~faults:[ "pe:1" ] g in
  let first = refuse state resched in
  Alcotest.(check string) "refused for its base schedule" ("base schedule: " ^ plain)
    (str_member "error" (parse_reply first));
  Alcotest.(check (pair int int)) "base found, nothing added" (1, 2) (refusal_cache state);
  Alcotest.(check string) "replayed byte for byte" first (refuse state resched);
  ignore (refuse state (reschedule_line ~faults:[ "pe:2" ] g));
  Alcotest.(check (pair int int)) "each reschedule finds the base" (3, 2)
    (refusal_cache state);
  (* Parse errors and PE-count mismatches are never memoised. *)
  List.iter
    (fun (ctg_text, mesh) ->
      ignore
        (expect_error state
           (Protocol.request_to_line
              (Protocol.Schedule
                 { ctg_text; mesh; algo = Runner.Eas; decisions = false; dvfs = None }))))
    [ ("garbage", (4, 4)); (Ctg_io.to_string g, (3, 3)) ];
  Alcotest.(check (pair int int)) "nothing else memoised" (3, 2) (refusal_cache state)

(* A reschedule with an empty fault set and a DVFS schedule share their
   base with a plain schedule. In every order each reply must be the one
   a fresh daemon gives, which has no memo to answer from: the plain
   refusal bare, the reschedule's and the DVFS request's as they word it. *)
let test_refusal_memo_order () =
  let g = infeasible_graph () in
  let lines =
    [
      ("schedule", schedule_line ~id:"s" g);
      ("reschedule", reschedule_line ~id:"r" ~faults:[] g);
      ("dvfs", schedule_line ~id:"d" ~dvfs:Noc_dvfs.Vf_table.default g);
    ]
  in
  let alone = List.map (fun (name, line) -> (name, refuse (mk_state ()) line)) lines in
  let rec orders = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x -> List.map (List.cons x) (orders (List.filter (( != ) x) xs)))
        xs
  in
  List.iter
    (fun order ->
      let state = mk_state () in
      let trail = String.concat " then " (List.map fst order) in
      List.iter
        (fun (name, line) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s" trail name)
            (List.assoc name alone) (refuse state line))
        order)
    (orders lines)

(* ------------------------------------------------------------------ *)
(* Differential: the daemon's reply vs one-shot `nocsched schedule`.   *)

(* A served reply is a pure function of its request: only whether it
   came from the cache may depend on what the daemon holds. One fixed
   sequence of schedule, DVFS, simulate and reschedule requests over six
   graphs (one of them also sent as a commented text, one refused by the
   certifier) goes to a daemon that keeps one schedule and to one that
   keeps 64: the replies must agree byte for byte once [cached],
   [base_cached] and the [stats] replies are masked. *)
let test_replies_independent_of_cache_state () =
  let g = Array.init 5 (fun i -> graph ~tasks:(16 + (4 * i)) (300 + i)) in
  let infeasible = infeasible_graph () in
  let commented =
    Protocol.request_to_line
      (Protocol.Schedule
         {
           ctg_text = "# another text of graph 0\n" ^ Ctg_io.to_string g.(0);
           mesh = (4, 4);
           algo = Runner.Eas;
           decisions = false;
           dvfs = None;
         })
  in
  let simulate ~faults ctg =
    Protocol.request_to_line
      (Protocol.Simulate
         { ctg_text = Ctg_io.to_string ctg; mesh = (4, 4); algo = Runner.Eas; faults; self_timed = false })
  in
  let pe i = [ Printf.sprintf "pe:%d" i ] in
  let dvfs = Noc_dvfs.Vf_table.default in
  let stats = Protocol.request_to_line Protocol.Stats in
  let each f = List.init (Array.length g) f in
  let lines =
    List.concat
      [
        each (fun i -> schedule_line g.(i));
        [ commented; schedule_line g.(0) ];
        [ schedule_line ~algo:Runner.Eas_base g.(1); schedule_line ~algo:Runner.Edf g.(2) ];
        each (fun i -> schedule_line ~dvfs g.(i));
        [ schedule_line ~dvfs ~decisions:true g.(3) ];
        each (fun i -> simulate ~faults:(pe i) g.(i));
        each (fun i -> reschedule_line ~faults:(pe (i + 1)) g.(i));
        [ stats ];
        each (fun i -> schedule_line g.(4 - i));
        [ reschedule_line ~faults:(pe 1) g.(0); schedule_line ~dvfs g.(0); commented ];
        [ schedule_line ~decisions:true g.(2) ];
        [ schedule_line infeasible; schedule_line ~dvfs infeasible ];
        [ reschedule_line ~faults:(pe 3) infeasible; schedule_line infeasible ];
        [ stats ];
      ]
  in
  let replay capacity =
    let state = mk_state ~capacity () in
    List.map (fun line -> fst (Server.handle_line state line)) lines
  in
  let masked reply =
    match parse_reply reply with
    | Json.Obj fields ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "cached" && k <> "base_cached") fields))
    | _ -> reply
  in
  let hits replies =
    List.length
      (List.filter (fun r -> Json.member "cached" (parse_reply r) = Some (Json.Bool true)) replies)
  in
  let small = replay 1 and large = replay 64 in
  Alcotest.(check bool) "the large daemon serves more hits" true (hits large > hits small);
  List.iteri
    (fun i ((line, a), b) ->
      if line <> stats then
        Alcotest.(check string) (Printf.sprintf "request %d" i) (masked b) (masked a))
    (List.combine (List.combine lines small) large)

(* Resolved against the test executable, not the cwd, so the test also
   works under `dune exec` from the workspace root. *)
let binary =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "nocsched.exe"))

let test_one_shot_differential () =
  let ctg_file = Filename.temp_file "serve_diff" ".ctg" in
  let sched_file = Filename.temp_file "serve_diff" ".sched" in
  let dec_file = Filename.temp_file "serve_diff" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ ctg_file; sched_file; dec_file ])
    (fun () ->
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (* One daemon state for every input: the reversed graph follows
         the graph it reorders. *)
      let state = mk_state () in
      let g60 = graph ~tasks:60 5 in
      List.iter
        (fun (name, g) ->
          Ctg_io.save ~path:ctg_file g;
          let command =
            Printf.sprintf "%s schedule %s --save-schedule %s --decisions %s --quiet >/dev/null 2>&1"
              binary (Filename.quote ctg_file) (Filename.quote sched_file)
              (Filename.quote dec_file)
          in
          Alcotest.(check int) (name ^ ": one-shot run exits 0") 0 (Sys.command command);
          let reply = expect_ok state (schedule_line ~decisions:true g) in
          Alcotest.(check string) (name ^ ": daemon schedule = one-shot --save-schedule")
            (read sched_file) (str_member "schedule" reply);
          Alcotest.(check string) (name ^ ": daemon decision log = one-shot --decisions")
            (read dec_file) (str_member "decisions" reply))
        [ ("18 tasks", graph ~tasks:18 7); ("60 tasks", g60); ("60 reversed", reversed g60) ])

(* ------------------------------------------------------------------ *)
(* Live daemon: concurrent clients over the Unix socket.               *)

(* A daemon on a private socket, in its own domain, once it listens. *)
let start_daemon ~name ~capacity =
  let socket_path =
    Printf.sprintf "%s/nocsched-test-%s-%d.sock" (Filename.get_temp_dir_name ()) name
      (Unix.getpid ())
  in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          { Server.socket_path; capacity })
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  (socket_path, daemon)

let test_concurrent_clients () =
  let socket_path, daemon = start_daemon ~name:"serve" ~capacity:16 in
  let seeds_a = [ 10; 11; 12 ] and seeds_b = [ 13; 14; 15 ] in
  let line name seed = schedule_line ~id:(Printf.sprintf "%s-%d" name seed) (graph seed) in
  let client_loop name seeds =
    Client.with_connection ~socket_path (fun c ->
        List.map (fun seed -> (line name seed, Client.request c (line name seed))) seeds)
  in
  (* Two clients in parallel domains, interleaving requests. Replies are
     checked once both have joined: Alcotest's reporting is not safe to
     call from two domains at once. Each reply must carry the schedule
     text a fresh in-process state answers the same line with. *)
  let da = Domain.spawn (fun () -> client_loop "a" seeds_a) in
  let db = Domain.spawn (fun () -> client_loop "b" seeds_b) in
  let ra = Domain.join da and rb = Domain.join db in
  List.iter
    (fun (request, reply) ->
      let obj = parse_reply reply in
      if not (is_ok obj) then Alcotest.failf "daemon refused: %s" reply;
      let fresh = parse_reply (fst (Server.handle_line (mk_state ()) request)) in
      Alcotest.(check string) "reply routed to the right request" (str_member "id" fresh)
        (str_member "id" obj);
      Alcotest.(check string)
        (Printf.sprintf "schedule text for %s" (str_member "id" obj))
        (str_member "schedule" fresh) (str_member "schedule" obj))
    (ra @ rb);
  (* Clean shutdown through the protocol; the socket file disappears. *)
  let reply =
    Client.one_shot ~retries:10 ~socket_path
      (Protocol.request_to_line Protocol.Shutdown)
  in
  Alcotest.(check bool) "shutdown acknowledged" true (is_ok (parse_reply reply));
  Domain.join daemon;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path)

(* A --dvfs request must never be answered from the unscaled cache (or
   vice versa): the V/f ladder is its own cache-key segment. *)
let test_dvfs_no_cache_aliasing () =
  let state = mk_state () in
  let g = graph 5 in
  let plain = expect_ok state (schedule_line g) in
  let scaled = expect_ok state (schedule_line ~dvfs:Noc_dvfs.Vf_table.default g) in
  Alcotest.(check bool) "keys differ" true
    (str_member "key" plain <> str_member "key" scaled);
  Alcotest.(check bool) "scaled reply is not the cached unscaled one" false
    (bool_member "cached" scaled);
  Alcotest.(check bool) "but its base schedule was reused" true
    (bool_member "base_cached" scaled);
  Alcotest.(check bool) "scaled schedule is format v3" true
    (String.starts_with ~prefix:"schedule 3\n" (str_member "schedule" scaled));
  Alcotest.(check bool) "unscaled schedule stays v2" true
    (String.starts_with ~prefix:"schedule 2\n" (str_member "schedule" plain));
  Alcotest.(check bool) "reclaims energy" true (num_member "reclaimed" scaled > 0.);
  Alcotest.(check bool) "energy drops accordingly" true
    (num_member "energy" scaled
     < num_member "energy" plain -. (num_member "reclaimed" scaled /. 2.));
  Alcotest.(check bool) "certified" true (bool_member "certified" scaled);
  (* Replays hit their own entries, bit-identically. *)
  let scaled2 = expect_ok state (schedule_line ~dvfs:Noc_dvfs.Vf_table.default g) in
  Alcotest.(check bool) "scaled replay is a hit" true (bool_member "cached" scaled2);
  Alcotest.(check string) "scaled replay bit-identical"
    (str_member "schedule" scaled) (str_member "schedule" scaled2);
  let plain2 = expect_ok state (schedule_line g) in
  Alcotest.(check bool) "plain replay is a hit" true (bool_member "cached" plain2);
  Alcotest.(check string) "plain replay still unscaled"
    (str_member "schedule" plain) (str_member "schedule" plain2);
  (* A different ladder is a different key. *)
  let table = Result.get_ok (Noc_dvfs.Vf_table.of_string "1,0.9") in
  let other = expect_ok state (schedule_line ~dvfs:table g) in
  Alcotest.(check bool) "other ladder misses" false (bool_member "cached" other);
  Alcotest.(check bool) "other ladder has its own key" true
    (str_member "key" other <> str_member "key" scaled)

(* ------------------------------------------------------------------ *)
(* Request framing.                                                    *)

(* Feeds [stream] to a line buffer in chunks of the sizes [next ()]
   returns. *)
let feed_in_chunks stream next =
  let lines = Server.Line_buffer.create () in
  let bytes = Bytes.unsafe_of_string stream in
  let rec go off acc =
    if off >= Bytes.length bytes then List.concat (List.rev acc)
    else
      let len = min (next ()) (Bytes.length bytes - off) in
      go (off + len) (Server.Line_buffer.feed lines bytes off len :: acc)
  in
  go 0 []

let test_multi_megabyte_request () =
  let g = graph 3 in
  (* A small graph behind ~2.5 MB of comment lines. *)
  let padding =
    String.concat ""
      (List.init 40_000 (fun i ->
           Printf.sprintf "# filler %06d ...............................................\n" i))
  in
  let request ctg_text =
    Protocol.request_to_line
      (Protocol.Schedule
         { ctg_text; mesh = (4, 4); algo = Runner.Eas; decisions = false; dvfs = None })
  in
  let big = request (padding ^ Ctg_io.to_string g) in
  let small = {|{"op":"bogus"}|} in
  Alcotest.(check bool) "request is multi-megabyte" true (String.length big > 2_000_000);
  let stream = String.concat "\n" [ big; small; ""; big ] ^ "\n" ^ "{\"op\":" in
  let expected = [ big; small; ""; big ] in
  let rng = Noc_util.Prng.create ~seed:9 in
  List.iter
    (fun (label, next) ->
      Alcotest.(check bool) label true (feed_in_chunks stream next = expected))
    [
      ("64 KiB chunks", fun () -> 65536);
      ("odd chunks", fun () -> 65535);
      ("small prime chunks", fun () -> 4093);
      ("random chunks", fun () -> 1 + Noc_util.Prng.int rng ~bound:200_000);
      ("one to three bytes at a time", fun () -> 1 + Noc_util.Prng.int rng ~bound:3);
    ];
  let reply line = fst (Server.handle_line (mk_state ()) line) in
  let padded = parse_reply (reply (List.hd (feed_in_chunks stream (fun () -> 4093)))) in
  let plain = parse_reply (reply (request (Ctg_io.to_string g))) in
  Alcotest.(check bool) "padded request answered" true (is_ok padded);
  Alcotest.(check string) "same schedule as without the comments"
    (str_member "schedule" plain) (str_member "schedule" padded)

(* A line longer than the cap is dropped, not buffered: the lines before
   it still come out, a line of exactly the cap is accepted, and a
   poisoned buffer returns nothing more. The stream is fed as one 64 KiB
   block repeated, so the test never holds the oversized line itself. *)
let test_line_buffer_cap () =
  let block = Bytes.make 65536 'x' in
  let blocks = Server.max_request_bytes / Bytes.length block in
  Alcotest.(check int) "cap is a whole number of blocks" Server.max_request_bytes
    (blocks * Bytes.length block);
  let fill lines n =
    for _ = 1 to n do
      Alcotest.(check (list string)) "no line yet" []
        (Server.Line_buffer.feed lines block 0 (Bytes.length block))
    done
  in
  let feed_string lines s =
    Server.Line_buffer.feed lines (Bytes.of_string s) 0 (String.length s)
  in
  let at_cap = Server.Line_buffer.create () in
  fill at_cap blocks;
  (match feed_string at_cap "\nnext\n" with
  | [ line; "next" ] ->
    Alcotest.(check int) "a line of exactly the cap is accepted"
      Server.max_request_bytes (String.length line)
  | lines -> Alcotest.failf "expected two lines, got %d" (List.length lines));
  Alcotest.(check bool) "not overflowed" false (Server.Line_buffer.overflowed at_cap);
  let over = Server.Line_buffer.create () in
  Alcotest.(check (list string)) "lines before the oversized one" [ "a"; "b" ]
    (feed_string over "a\nb\nx");
  fill over (blocks - 1);
  Alcotest.(check (list string)) "one byte past the cap" []
    (Server.Line_buffer.feed over block 0 (Bytes.length block));
  Alcotest.(check bool) "overflowed" true (Server.Line_buffer.overflowed over);
  Alcotest.(check (list string)) "poisoned buffer returns nothing" []
    (feed_string over "\nc\n");
  let terminated = Server.Line_buffer.create () in
  fill terminated blocks;
  Alcotest.(check (list string)) "a terminated oversized line is dropped too" []
    (feed_string terminated "y\nz\n");
  Alcotest.(check bool) "overflowed" true (Server.Line_buffer.overflowed terminated)

(* An oversized unterminated request gets a structured refusal and its
   connection is closed, while another client is served before, during
   and after. *)
let test_oversized_request_refused () =
  let socket_path, daemon = start_daemon ~name:"oversized" ~capacity:4 in
  let stats () =
    is_ok
      (parse_reply
         (Client.one_shot ~retries:10 ~socket_path (Protocol.request_to_line Protocol.Stats)))
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let block = Bytes.make 65536 'x' in
  let rec write_block off =
    if off < Bytes.length block then
      write_block (off + Unix.write fd block off (Bytes.length block - off))
  in
  let half = Server.max_request_bytes / 2 / Bytes.length block in
  for _ = 1 to half do
    write_block 0
  done;
  Alcotest.(check bool) "other client served while a request is pending" true (stats ());
  (* The daemon may hang up before the last block is fully written. *)
  (try
     for _ = 1 to half + 1 do
       write_block 0
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  let reply = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes reply chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  drain ();
  Unix.close fd;
  let refusal = parse_reply (String.trim (Buffer.contents reply)) in
  Alcotest.(check bool) "refused" false (is_ok refusal);
  Alcotest.(check bool) "request-too-large error" true
    (String.starts_with ~prefix:"request-too-large" (str_member "error" refusal));
  Alcotest.(check bool) "other client served after the refusal" true (stats ());
  ignore (Client.one_shot ~retries:10 ~socket_path (Protocol.request_to_line Protocol.Shutdown));
  Domain.join daemon

(* Garbage on one connection leaves the daemon serving the others. *)
let test_daemon_survives_garbage () =
  let socket_path, daemon = start_daemon ~name:"garbage" ~capacity:4 in
  let rng = Noc_util.Prng.create ~seed:77 in
  let burst =
    String.init 65536 (fun _ ->
        if Noc_util.Prng.int rng ~bound:1000 = 0 then '\n'
        else Char.chr (Noc_util.Prng.int rng ~bound:256))
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let bytes = Bytes.of_string burst in
  let rec write off =
    if off < Bytes.length bytes then write (off + Unix.write fd bytes off (Bytes.length bytes - off))
  in
  write 0;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (* One error reply per complete line, then the daemon hangs up. *)
  let replies = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes replies chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close fd;
  let count c s = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 s in
  Alcotest.(check int) "one reply per garbage line" (count '\n' burst)
    (count '\n' (Buffer.contents replies));
  let stats =
    parse_reply (Client.one_shot ~retries:10 ~socket_path (Protocol.request_to_line Protocol.Stats))
  in
  Alcotest.(check bool) "stats still answered" true (is_ok stats);
  ignore (Client.one_shot ~retries:10 ~socket_path (Protocol.request_to_line Protocol.Shutdown));
  Domain.join daemon

(* ------------------------------------------------------------------ *)
(* Golden replay *)

(* A fixed stream of about 300 requests of every class, sent through
   one in-process state with 8-entry caches: popular graphs (hits,
   misses and evictions), fresh graphs, DVFS requests with the default
   and a custom ladder, decision logs, reversed edge declarations,
   reschedules with a failed PE, simulations, an infeasible graph sent
   twice and then under DVFS and a fault, malformed lines, and ids that
   need escaping. Each reply is pinned by the MD5 of its bytes in
   [serve_golden.txt], one line per request; [stats] replies carry
   latencies and are sent but not pinned. A change to a schedule, a
   cache key, a digest, the schedule text or the JSON printer flips a
   line. Regenerate with
     SERVE_GOLDEN_REGEN=$PWD/test/serve_golden.txt \
       dune exec test/test_main.exe -- test serve *)

let golden_file = "serve_golden.txt"

(* Request lines, each tagged with its class; [None] marks a reply
   that is not pinned. *)
let golden_stream () =
  let prng = Noc_util.Prng.create ~seed:21 in
  let popular =
    Array.init 12 (fun i -> graph ~tasks:(12 + (2 * i)) ~tightness:3.0 (100 + i))
  in
  let fresh = Array.init 12 (fun i -> graph ~tasks:(16 + (2 * i)) ~tightness:2.5 (200 + i)) in
  let infeasible = infeasible_graph () in
  (* Skewed draws: the low indices come up most often. *)
  let draw () =
    let u = Noc_util.Prng.float prng ~bound:1. in
    min 11 (int_of_float (12. *. u *. u))
  in
  let ladder =
    match Noc_dvfs.Vf_table.of_string "1,0.75,0.5" with
    | Ok t -> t
    | Error msg -> failwith msg
  in
  let fault () = [ Printf.sprintf "pe:%d" (Noc_util.Prng.int prng ~bound:16) ] in
  let simulate ?(faults = []) ?(self_timed = false) g =
    Protocol.request_to_line
      (Protocol.Simulate
         { ctg_text = Ctg_io.to_string g; mesh = (4, 4); algo = Runner.Eas; faults; self_timed })
  in
  let malformed =
    [|
      "not json";
      {|{"op": "schedule", "ctg": "ctg 1|};
      {|{"op": "frobnicate"}|};
      {|{"op": "schedule", "ctg": "ctg 1\npes 16\ntask 0 name t0\n  times 1 2\n"}|};
      {|{"op": "reschedule", "ctg": "ctg 1\npes 1\n", "faults": ["pe:x"]}|};
      {|{"op": "schedule", "ctg": "x", "mesh": "0x4"}|};
      {|{"op": "schedule", "ctg": "x", "algo": "fastest"}|};
      {|{"op": "schedule", "ctg": "x", "dvfs": true, "vf_levels": "1,2"}|};
      "{\"op\": \"schedule\", \"ctg\": \"\\u0001\\\"\\t\xff\x7f\", \"id\": \"\\u001f\xc3\xa9\"}";
      Protocol.request_to_line
        (Protocol.Schedule
           {
             ctg_text = Ctg_io.to_string popular.(0);
             mesh = (3, 3);
             algo = Runner.Eas;
             decisions = false;
             dvfs = None;
           });
    |]
  in
  let block b =
    let p () = popular.(draw ()) in
    let tagged cls line = (Some cls, line) in
    List.init 14 (fun _ -> tagged "popular" (schedule_line (p ())))
    @ [
        tagged "fresh" (schedule_line fresh.(b));
        tagged "dvfs" (schedule_line ~dvfs:Noc_dvfs.Vf_table.default popular.(b mod 2));
        tagged "dvfs" (schedule_line ~dvfs:ladder ~decisions:(b mod 3 = 0) (p ()));
        tagged "decisions" (schedule_line ~decisions:true (p ()));
        tagged "reschedule" (reschedule_line ~faults:(fault ()) (p ()));
        tagged "simulate" (simulate (p ()));
        tagged "simulate" (simulate ~faults:(fault ()) ~self_timed:(b mod 2 = 0) (p ()));
        tagged "permuted" (schedule_line (reversed (p ())));
        tagged "malformed" malformed.(b mod Array.length malformed);
        tagged "id"
          (schedule_line ~id:(Printf.sprintf "r\"%d\\\n\t\x01\xe2\x82\xac" b) (p ()));
        (None, Protocol.request_to_line Protocol.Stats);
      ]
    @
    match b with
    | 3 | 7 -> [ tagged "infeasible" (schedule_line infeasible) ]
    | 9 -> [ tagged "infeasible" (schedule_line ~dvfs:Noc_dvfs.Vf_table.default infeasible) ]
    | 11 -> [ tagged "infeasible" (reschedule_line ~faults:[ "pe:3" ] infeasible) ]
    | _ -> []
  in
  (* Blocks are built in order, so the draws do not depend on the
     evaluation order of [List.concat_map]'s arguments. *)
  let blocks = ref [] in
  for b = 0 to 11 do
    blocks := block b :: !blocks
  done;
  List.concat (List.rev !blocks)

let golden_replies () =
  let state = mk_state ~capacity:8 () in
  List.filter_map
    (fun (cls, line) ->
      let reply, stop = Server.handle_line state line in
      if stop then Alcotest.fail "a replayed request shut the daemon down";
      Option.map (fun cls -> (cls, Digest.to_hex (Digest.string reply))) cls)
    (golden_stream ())

let test_golden_replay () =
  let replies =
    List.mapi (fun i (cls, md5) -> Printf.sprintf "%d %s %s" i cls md5) (golden_replies ())
  in
  match Sys.getenv_opt "SERVE_GOLDEN_REGEN" with
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) replies)
  | None ->
    let golden =
      In_channel.with_open_text golden_file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    Alcotest.(check int) "pinned replies" (List.length golden) (List.length replies);
    let differing = List.filter (fun (e, g) -> e <> g) (List.combine golden replies) in
    match differing with
    | [] -> ()
    | (expected, got) :: _ ->
      Alcotest.failf "%d of %d replies differ from %s; first: expected %S, got %S"
        (List.length differing) (List.length golden) golden_file expected got

let suite =
  [
    Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Alcotest.test_case "cache invalid capacity" `Quick test_cache_invalid_capacity;
    Alcotest.test_case "cache keeps a reused entry" `Quick test_cache_keeps_reused_entry;
    Alcotest.test_case "cache matches the SIEVE model" `Quick test_cache_matches_sieve_model;
    Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol errors" `Quick test_protocol_errors;
    Alcotest.test_case "malformed requests" `Quick test_malformed_requests;
    Alcotest.test_case "cached hit bit-identity" `Quick test_cached_hit_bit_identity;
    Alcotest.test_case "reversed edges miss" `Quick test_reversed_edges_miss;
    Alcotest.test_case "eviction at capacity" `Quick test_eviction_at_capacity;
    Alcotest.test_case "another text of one graph is served as a fresh daemon serves it"
      `Quick test_another_text_served_fresh;
    Alcotest.test_case "incremental reschedule" `Quick test_reschedule_incremental;
    Alcotest.test_case "simulate request" `Quick test_simulate_request;
    Alcotest.test_case "stats shape" `Quick test_stats_shape;
    Alcotest.test_case "refusal memo replays" `Quick test_refusal_memo_replays;
    Alcotest.test_case "refusal memo keys" `Quick test_refusal_memo_keys;
    Alcotest.test_case "refusal memo order" `Quick test_refusal_memo_order;
    Alcotest.test_case "replies do not depend on cache state" `Quick
      test_replies_independent_of_cache_state;
    Alcotest.test_case "one-shot differential" `Quick test_one_shot_differential;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "multi-megabyte request in awkward chunks" `Quick
      test_multi_megabyte_request;
    Alcotest.test_case "daemon survives a garbage burst" `Quick test_daemon_survives_garbage;
    Alcotest.test_case "line buffer caps a request" `Quick test_line_buffer_cap;
    Alcotest.test_case "oversized request refused, others served" `Quick
      test_oversized_request_refused;
    Alcotest.test_case "dvfs never aliases the unscaled cache" `Quick
      test_dvfs_no_cache_aliasing;
    Alcotest.test_case "golden replay" `Quick test_golden_replay;
    Alcotest.test_case "fault specs checked" `Quick test_fault_specs_checked;
  ]
