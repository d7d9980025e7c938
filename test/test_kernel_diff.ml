(* Differential harness: the flat-array kernel path (Level_sched) must
   reproduce the probing reference (Level_sched_reference) bit for bit —
   same PE assignments, same start/finish floats, same transactions and
   the same decision log — over a 50-case corpus spanning both TGFF
   categories, the MSB A/V benchmarks, a full-size graph and a degraded
   platform. *)

module Level_sched = Noc_eas.Level_sched
module Reference = Level_sched_reference
module Budget = Noc_eas.Budget
module Kernel = Noc_eas.Kernel
module Schedule = Noc_sched.Schedule
module Category = Noc_tgff.Category
module Params = Noc_tgff.Params
module Msb = Noc_experiments.Msb_tables
module Profile = Noc_msb.Profile
module Decisions = Noc_obs.Decisions
module Degraded = Noc_noc.Degraded

type case = {
  label : string;
  platform : Noc_noc.Platform.t;
  degraded : Degraded.t option;
  ctg : Noc_ctg.Ctg.t;
}

let tgff_case kind ~n_tasks ~seed =
  let platform = Category.platform in
  let params = { (Category.params kind) with Params.n_tasks } in
  {
    label =
      Printf.sprintf "%s/%d-tasks/seed-%d"
        (match kind with
        | Category.Category_i -> "cat-i"
        | Category.Category_ii -> "cat-ii"
        | Category.Category_iii -> "cat-iii")
        n_tasks seed;
    platform;
    degraded = None;
    ctg = Noc_tgff.Generate.generate ~params ~platform ~seed;
  }

let msb_case which clip =
  let platform = Msb.platform_of which in
  {
    label =
      Printf.sprintf "msb/%s/%s" (Msb.which_name which) (Profile.clip_name clip);
    platform;
    degraded = None;
    ctg = Msb.graph_of which ~clip;
  }

let degraded_case ~seed =
  let platform = Category.platform in
  let link = List.hd (Noc_noc.Platform.all_links platform) in
  let view = Degraded.make platform ~failed_pes:[ 5 ] ~failed_links:[ link ] in
  let params =
    { (Category.params Category.Category_i) with Params.n_tasks = 40 }
  in
  {
    label = Printf.sprintf "degraded/seed-%d" seed;
    platform;
    degraded = Some view;
    ctg = Noc_tgff.Generate.generate ~params ~platform ~seed;
  }

(* 20 + 20 + 9 + 2 + 1 = 52 cases. *)
let corpus =
  List.concat
    [
      List.init 20 (fun seed ->
          tgff_case Category.Category_i ~n_tasks:40 ~seed);
      List.init 20 (fun seed ->
          tgff_case Category.Category_ii ~n_tasks:40 ~seed);
      List.concat_map
        (fun which ->
          List.map (fun clip -> msb_case which clip) Profile.all_clips)
        [ Msb.Encoder; Msb.Decoder; Msb.Integrated ];
      (* Full-size category graphs: the configuration the wall-time
         benchmark and the paper's experiments run. *)
      [
        tgff_case Category.Category_i ~n_tasks:500 ~seed:1000;
        tgff_case Category.Category_ii ~n_tasks:500 ~seed:1000;
      ];
      [ degraded_case ~seed:4 ];
    ]

(* Hex-float fingerprints: [%h] prints the exact bit pattern, so string
   equality is float equality with no tolerance to hide behind. *)
let fingerprint s =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (p : Schedule.placement) ->
      Buffer.add_string buf
        (Printf.sprintf "p%d:%d:%h:%h;" p.Schedule.task p.Schedule.pe
           p.Schedule.start p.Schedule.finish))
    (Schedule.placements s);
  Array.iter
    (fun (t : Schedule.transaction) ->
      Buffer.add_string buf
        (Printf.sprintf "t%d:%d:%d:[%s]:%h:%h;" t.Schedule.edge t.Schedule.src_pe
           t.Schedule.dst_pe
           (String.concat "," (List.map string_of_int t.Schedule.route))
           t.Schedule.start t.Schedule.finish))
    (Schedule.transactions s);
  Buffer.contents buf

let approx_fingerprint s =
  (* The issue's 1e-9 tolerance, as a second, weaker check that yields a
     readable diff if the exact one ever fails. *)
  String.concat " "
    (List.init (Schedule.n_tasks s) (fun i ->
         let p = Schedule.placement s i in
         Printf.sprintf "%d:%d:%.9f:%.9f" i p.Schedule.pe p.Schedule.start
           p.Schedule.finish))

let test_schedules_identical () =
  List.iter
    (fun { label; platform; degraded; ctg } ->
      let budget = Budget.compute ctg in
      let expected = Reference.run ?degraded platform ctg budget in
      let expected_fp = fingerprint expected in
      let expected_approx = approx_fingerprint expected in
      let kernel = Kernel.build ?degraded platform ctg in
      let actual = Level_sched.run ~kernel platform ctg budget in
      Alcotest.(check string)
        (Printf.sprintf "%s: placements to 1e-9" label)
        expected_approx (approx_fingerprint actual);
      Alcotest.(check string)
        (Printf.sprintf "%s: bit-exact schedule" label)
        expected_fp (fingerprint actual))
    corpus

(* Decision-log equivalence: the kernel path must record the same
   candidate sets — same rules, same chosen PEs, same F rows — as the
   reference. Run on a slice of the corpus (the log pre-pass makes every
   probe exact, so this mode is slower by design). *)
let decision_corpus () =
  [
    tgff_case Category.Category_i ~n_tasks:40 ~seed:0;
    tgff_case Category.Category_i ~n_tasks:40 ~seed:7;
    tgff_case Category.Category_ii ~n_tasks:40 ~seed:3;
    msb_case Msb.Integrated Profile.Foreman;
    degraded_case ~seed:4;
  ]

let capture_log run =
  Decisions.reset ();
  Decisions.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Decisions.set_enabled false;
      Decisions.reset ())
    (fun () ->
      ignore (run ());
      Decisions.export_jsonl ())

let test_decision_logs_identical () =
  List.iter
    (fun { label; platform; degraded; ctg } ->
      let budget = Budget.compute ctg in
      let reference_log =
        capture_log (fun () ->
            Decisions.with_run label (fun () ->
                Reference.run ?degraded platform ctg budget))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: reference log non-empty" label)
        true
        (String.length reference_log > 0);
      let kernel_log =
        capture_log (fun () ->
            Decisions.with_run label (fun () ->
                Level_sched.run ~kernel:(Kernel.build ?degraded platform ctg) platform ctg
                  budget))
      in
      Alcotest.(check string) (Printf.sprintf "%s: decision log" label) reference_log kernel_log)
    (decision_corpus ())

(* A kernel built over a fault view is the whole fault input: passed
   alone, without the view beside it, it must keep every task off the
   failed PEs and every transaction on surviving links, in Step 2 and in
   the full pipeline alike. The 60-task category-I graph puts tasks on
   PE 5 and on PE 10 when no fault is known. *)
let test_kernel_carries_view () =
  let platform = Category.platform in
  let params = { (Category.params Category.Category_i) with Params.n_tasks = 60 } in
  let ctg = Noc_tgff.Generate.generate ~params ~platform ~seed:3 in
  let link = List.hd (Noc_noc.Platform.all_links platform) in
  let check label view schedule =
    Array.iter
      (fun (p : Schedule.placement) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: task %d on alive PE %d" label p.Schedule.task p.Schedule.pe)
          true
          (Degraded.pe_alive view p.Schedule.pe))
      (Schedule.placements schedule);
    Array.iter
      (fun (t : Schedule.transaction) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: edge %d on a surviving route" label t.Schedule.edge)
          true
          (Degraded.route_valid view t.Schedule.route))
      (Schedule.transactions schedule)
  in
  List.iter
    (fun (name, failed_pes, failed_links) ->
      let view = Degraded.make platform ~failed_pes ~failed_links in
      let kernel = Kernel.build ~degraded:view platform ctg in
      check (name ^ "/eas") view (Noc_eas.Eas.schedule ~kernel platform ctg).Noc_eas.Eas.schedule;
      check (name ^ "/level_sched") view
        (Level_sched.run ~kernel platform ctg (Budget.compute ~kernel ctg)))
    [ ("pe-5", [ 5 ], []); ("pe-10", [ 10 ], []); ("link", [], [ link ]) ]

(* A kernel prices one problem. Passed beside another graph, or beside
   an equal but separately built platform, every entry point that still
   takes them must refuse it rather than schedule one problem with the
   prices of another. *)
let test_kernel_mismatch_raises () =
  let kind = Category.Category_i in
  let platform = Category.platform in
  let graph0 = Category.benchmark kind ~index:0 and graph1 = Category.benchmark kind ~index:1 in
  let kernel = Kernel.build platform graph0 in
  let twin = Noc_noc.Platform.heterogeneous_mesh ~seed:42 ~cols:4 ~rows:4 () in
  let base = (Noc_eas.Eas.schedule ~repair:false ~kernel platform graph0).Noc_eas.Eas.schedule in
  let budget = Budget.compute ~kernel graph0 in
  let raises label f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted a kernel built for another problem" label
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (what, p, g) ->
      raises (what ^ ": Eas.schedule") (fun () -> Noc_eas.Eas.schedule ~kernel p g);
      raises (what ^ ": Level_sched.run") (fun () -> Level_sched.run ~kernel p g budget);
      raises (what ^ ": Repair.run") (fun () -> Noc_eas.Repair.run ~kernel p g base))
    [ ("graph 1", platform, graph1); ("twin platform", twin, graph0) ];
  raises "graph 1: Budget.compute" (fun () -> Budget.compute ~kernel graph1)

let suite =
  [
    Alcotest.test_case "52-case corpus: kernel = reference" `Quick
      test_schedules_identical;
    Alcotest.test_case "decision logs identical" `Quick
      test_decision_logs_identical;
    Alcotest.test_case "a kernel's fault view reaches every placement" `Quick
      test_kernel_carries_view;
    Alcotest.test_case "a kernel for another problem raises" `Quick
      test_kernel_mismatch_raises;
  ]
