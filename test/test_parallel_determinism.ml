(* Parallel determinism: the experiment campaigns must produce
   bit-for-bit identical results at every job count. Each campaign runs
   at --jobs 1 (the pre-pool serial semantics), 2 and 4, and the results
   are compared field by field — everything except the wall-clock
   runtimes, which are the only fields allowed to vary. *)

let job_counts = [ 1; 2; 4 ]

(* [run jobs] renders a result exactly; every job count must render the
   same string as --jobs 1. *)
let check_jobs_invariant label run =
  let serial = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "%s identical at jobs=%d" label jobs)
        serial (run jobs))
    (List.tl job_counts)

(* Exact (hex-float) rendering of a pipeline result minus its runtime:
   the metrics and the certifier's verdict. *)
let evaluation_fingerprint (e : Noc_experiments.Pipeline.t) =
  let m = e.Noc_experiments.Pipeline.metrics in
  Printf.sprintf "total=%h comp=%h comm=%h mk=%h hops=%h miss=%d certifier=[%s]"
    m.Noc_sched.Metrics.total_energy m.Noc_sched.Metrics.computation_energy
    m.Noc_sched.Metrics.communication_energy m.Noc_sched.Metrics.makespan
    m.Noc_sched.Metrics.average_hops
    (Noc_sched.Metrics.miss_count m)
    (String.concat "; "
       (List.map (Format.asprintf "%a" Noc_analysis.Diagnostic.pp)
          e.Noc_experiments.Pipeline.diagnostics))

let suite_fingerprint (r : Noc_experiments.Random_suite.result) =
  String.concat "\n"
    (Printf.sprintf "avg=%h" r.Noc_experiments.Random_suite.average_edf_excess
     :: List.map
          (fun (row : Noc_experiments.Random_suite.row) ->
            Printf.sprintf "%d | EAS-base %s | EAS %s | EDF %s" row.index
              (evaluation_fingerprint row.eas_base)
              (evaluation_fingerprint row.eas)
              (evaluation_fingerprint row.edf))
          r.Noc_experiments.Random_suite.rows)

let test_random_suite_jobs_invariant () =
  (* Two inputs: the 50-seed corpus at a small scale, wide enough that
     the pool's chunk claiming actually interleaves, and the full
     category-I suite at the paper's size (the parallel bench's
     workload). *)
  List.iter
    (fun (label, indices, scale) ->
      check_jobs_invariant label (fun jobs ->
          suite_fingerprint
            (Noc_experiments.Random_suite.run ~jobs ?indices ?scale
               Noc_tgff.Category.Category_i)))
    [
      ("50-seed corpus (scale 0.1)", Some (List.init 50 Fun.id), Some 0.1);
      ("full category-I suite", None, None);
    ]

let test_fault_campaign_jobs_invariant () =
  (* The campaign's JSON report carries no timing fields, so whole-string
     equality is the exact field-wise comparison. *)
  List.iter
    (fun n_trials ->
      check_jobs_invariant (Printf.sprintf "fault campaign (%d trials)" n_trials)
        (fun jobs ->
          Noc_obs.Json.to_string
            (Noc_experiments.Fault_campaign.to_json
               (Noc_experiments.Fault_campaign.run ~jobs ~scale:0.08 ~n_graphs:2
                  ~n_trials ()))))
    [ 2; 3 ]

let test_obs_jobs_invariant () =
  (* Observability must not break determinism: the counter totals and the
     sorted decision log captured around a campaign are bit-identical at
     every job count. Two inputs: 20 category-I seeds at scale 0.08, and
     the observability bench's workload, the category-I suite at scale
     0.2. Routes are warmed by an untracked run first so the shared route
     memo starts from the same state for every job count. *)
  List.iter
    (fun (indices, scale) ->
      let run jobs =
        ignore
          (Noc_experiments.Random_suite.run ~jobs ?indices ~scale
             Noc_tgff.Category.Category_i)
      in
      run 1;
      let capture jobs =
        Noc_obs.Counters.reset ();
        Noc_obs.Decisions.reset ();
        Noc_obs.Counters.set_enabled true;
        Noc_obs.Decisions.set_enabled true;
        Fun.protect
          ~finally:(fun () ->
            Noc_obs.Counters.set_enabled false;
            Noc_obs.Decisions.set_enabled false)
          (fun () ->
            run jobs;
            let counters =
              List.map
                (fun (name, v) -> Printf.sprintf "%s=%d" name v)
                (Noc_obs.Counters.snapshot ())
            in
            let decisions = Noc_obs.Decisions.export_jsonl () in
            Alcotest.(check bool) "counters were collected" true (counters <> []);
            Alcotest.(check bool) "decisions were collected" true (decisions <> "");
            String.concat "\n" counters ^ "\n" ^ decisions)
      in
      check_jobs_invariant
        (Printf.sprintf "scale %g: counters and decision log" scale)
        capture)
    [ (Some (List.init 20 Fun.id), 0.08); (None, 0.2) ]

let suite =
  [
    Alcotest.test_case "random suite invariant under --jobs" `Slow
      test_random_suite_jobs_invariant;
    Alcotest.test_case "fault campaign invariant under --jobs" `Slow
      test_fault_campaign_jobs_invariant;
    Alcotest.test_case "counters and decisions invariant under --jobs" `Slow
      test_obs_jobs_invariant;
  ]
