(* Tests for the buffering-energy measurement and the SVG exporter. *)

module Executor = Noc_sim.Executor
module Buffer_energy = Noc_sim.Buffer_energy
module Svg_gantt = Noc_sched.Svg_gantt

let platform = Noc_tgff.Category.platform

let random_ctg ?(n_tasks = 80) ?(tightness = 1.4) seed =
  let params =
    { Noc_tgff.Params.default with n_tasks; deadline_tightness = tightness }
  in
  Noc_tgff.Generate.generate ~params ~platform ~seed

let test_aware_buffering_zero () =
  for seed = 0 to 2 do
    let ctg = random_ctg seed in
    let s = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
    let replay = Executor.run platform ctg s in
    Alcotest.(check (float 1e-9)) "no buffering for aware schedules" 0.
      (Buffer_energy.estimate ctg replay)
  done

let test_fixed_buffering_positive () =
  let positive = ref false in
  for seed = 0 to 4 do
    let ctg = random_ctg ~n_tasks:120 seed in
    let s =
      let kernel =
        Noc_eas.Kernel.build ~comm_model:Noc_sched.Comm_sched.Fixed_delay platform ctg
      in
      (Noc_eas.Eas.schedule ~kernel platform ctg).Noc_eas.Eas.schedule
    in
    let replay = Executor.run platform ctg s in
    if Buffer_energy.estimate ctg replay > 0. then positive := true
  done;
  Alcotest.(check bool) "fixed-delay schedules buffer somewhere" true !positive

let test_per_edge_consistency () =
  let ctg = random_ctg ~n_tasks:120 2 in
  let s =
    let kernel =
      Noc_eas.Kernel.build ~comm_model:Noc_sched.Comm_sched.Fixed_delay platform ctg
    in
    (Noc_eas.Eas.schedule ~kernel platform ctg).Noc_eas.Eas.schedule
  in
  let replay = Executor.run platform ctg s in
  let waits = replay.Executor.edge_waiting in
  Alcotest.(check int) "one entry per edge" (Noc_ctg.Ctg.n_edges ctg) (Array.length waits);
  Array.iter (fun w -> Alcotest.(check bool) "non-negative" true (w >= 0.)) waits;
  (* The estimate is volume x 1e-5 nJ/bit/us x wait, summed over edges. *)
  let per_edge =
    Array.mapi (fun e w -> (Noc_ctg.Ctg.edge ctg e).Noc_ctg.Edge.volume *. 1e-5 *. w) waits
  in
  Alcotest.(check (float 1e-6)) "sum matches estimate"
    (Buffer_energy.estimate ctg replay)
    (Array.fold_left ( +. ) 0. per_edge);
  (* Edge waiting sums to the executor's global counter (scaled by
     volume in the energy, so compare the raw waits). *)
  Alcotest.(check (float 1e-6)) "edge waits sum to total"
    replay.Executor.waiting_time
    (Array.fold_left ( +. ) 0. replay.Executor.edge_waiting)

let test_buffering_experiment_shape () =
  let rows = Noc_experiments.Buffering.run ~seeds:[ 0; 1 ] () in
  List.iter
    (fun (r : Noc_experiments.Buffering.row) ->
      Alcotest.(check (float 1e-9)) "aware is zero" 0.
        r.Noc_experiments.Buffering.aware_buffer_energy;
      Alcotest.(check bool) "comm energy positive" true
        (r.Noc_experiments.Buffering.comm_energy > 0.))
    rows;
  Alcotest.(check bool) "render works" true
    (String.length (Noc_experiments.Buffering.render rows) > 0)

(* ------------------------------------------------------------------ *)
(* SVG export *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

(* The SVG document [Svg_gantt.save] writes. *)
let render platform ctg s =
  let path = Filename.temp_file "nocsched" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Svg_gantt.save ~path platform ctg s;
      In_channel.with_open_text path In_channel.input_all)

let test_svg_well_formed () =
  let ctg = random_ctg ~n_tasks:20 1 in
  let s = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
  let svg = render platform ctg s in
  Alcotest.(check bool) "opens svg" true (contains svg "<svg ");
  Alcotest.(check bool) "closes svg" true (contains svg "</svg>");
  Alcotest.(check bool) "has PE lanes" true (contains svg "pe 0");
  Alcotest.(check bool) "has task rects" true (contains svg "<rect");
  Alcotest.(check bool) "has link lanes" true (contains svg "link ");
  (* Every '<' has a matching '>' count-wise (cheap well-formedness). *)
  let count c = String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 svg in
  Alcotest.(check int) "balanced angle brackets" (count '<') (count '>')

let test_svg_marks_misses () =
  (* Construct a certain miss and check the red outline appears. *)
  let b = Noc_ctg.Builder.create ~n_pes:2 in
  ignore
    (Noc_ctg.Builder.add_task b ~exec_times:[| 100.; 100. |]
       ~energies:[| 1.; 1. |] ~deadline:50. ());
  let ctg = Noc_ctg.Builder.build_exn b in
  let p2 = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:1 in
  let s = (Noc_eas.Eas.schedule p2 ctg).Noc_eas.Eas.schedule in
  let svg = render p2 ctg s in
  Alcotest.(check bool) "missed task outlined red" true (contains svg "#d00")

let test_svg_save () =
  let ctg = random_ctg ~n_tasks:10 2 in
  let s = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
  let path = Filename.temp_file "nocsched" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Svg_gantt.save ~path platform ctg s;
      let text = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check bool) "file written" true (contains text "</svg>"))

let test_svg_escapes_names () =
  let b = Noc_ctg.Builder.create ~n_pes:2 in
  ignore
    (Noc_ctg.Builder.add_task b ~name:"a<b&c" ~exec_times:[| 10.; 10. |]
       ~energies:[| 1.; 1. |] ());
  let ctg = Noc_ctg.Builder.build_exn b in
  let p2 = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:1 in
  let s = (Noc_eas.Eas.schedule p2 ctg).Noc_eas.Eas.schedule in
  let svg = render p2 ctg s in
  Alcotest.(check bool) "escaped" true (contains svg "a&lt;b&amp;c");
  Alcotest.(check bool) "raw name absent" false (contains svg ">a<b&c<")

let suite =
  [
    Alcotest.test_case "aware buffering is zero" `Slow test_aware_buffering_zero;
    Alcotest.test_case "fixed buffering positive" `Slow test_fixed_buffering_positive;
    Alcotest.test_case "per-edge consistency" `Quick test_per_edge_consistency;
    Alcotest.test_case "buffering experiment shape" `Slow test_buffering_experiment_shape;
    Alcotest.test_case "svg well-formed" `Quick test_svg_well_formed;
    Alcotest.test_case "svg marks misses" `Quick test_svg_marks_misses;
    Alcotest.test_case "svg save" `Quick test_svg_save;
    Alcotest.test_case "svg escapes names" `Quick test_svg_escapes_names;
  ]
