(* Smoke tests for the ASCII Gantt renderer. *)

module Gantt = Noc_sched.Gantt
module Schedule = Noc_sched.Schedule

let platform = Noc_noc.Platform.homogeneous_mesh ~cols:2 ~rows:2

let ctg =
  let b = Noc_ctg.Builder.create ~n_pes:4 in
  let t0 = Noc_ctg.Builder.add_uniform_task b ~time:10. ~energy:1. () in
  let t1 = Noc_ctg.Builder.add_uniform_task b ~time:10. ~energy:1. () in
  Noc_ctg.Builder.connect b ~src:t0 ~dst:t1 ~volume:3200.;
  Noc_ctg.Builder.build_exn b

let schedule =
  Schedule.make
    ~placements:
      [|
        { Schedule.task = 0; pe = 0; start = 0.; finish = 10. };
        { Schedule.task = 1; pe = 1; start = 11.; finish = 21. };
      |]
    ~transactions:
      [|
        {
          Schedule.edge = 0;
          src_pe = 0;
          dst_pe = 1;
          route = [ 0; 1 ];
          start = 10.;
          finish = 11.;
        };
      |]

let lines_of s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let test_renders_all_pes () =
  let out = Gantt.render ~width:40 platform ctg schedule in
  let pe_rows =
    lines_of out |> List.filter (fun l -> String.length l > 2 && String.sub l 0 2 = "pe")
  in
  Alcotest.(check int) "one row per PE" 4 (List.length pe_rows)

let test_link_rows_present () =
  let out = Gantt.render ~width:40 platform ctg schedule in
  let has_link =
    List.exists
      (fun l -> String.length l > 5 && String.contains l '>')
      (lines_of out)
  in
  Alcotest.(check bool) "link row shown" true has_link

let test_row_width_respected () =
  let out = Gantt.render ~width:32 platform ctg schedule in
  List.iter
    (fun l ->
      if String.length l > 2 && String.sub l 0 2 = "pe" then
        (* "pe NN |" ^ 32 cells ^ "|" *)
        Alcotest.(check int) "row width" (6 + 1 + 32 + 1) (String.length l))
    (lines_of out)

let test_busy_cells_marked () =
  let out = Gantt.render ~width:40 platform ctg schedule in
  Alcotest.(check bool) "task symbols present" true
    (String.contains out 'a' && String.contains out 'b')

let test_empty_schedule () =
  let b = Noc_ctg.Builder.create ~n_pes:4 in
  ignore (Noc_ctg.Builder.add_uniform_task b ~time:1. ~energy:1. ());
  let g = Noc_ctg.Builder.build_exn b in
  let s =
    Schedule.make
      ~placements:[| { Schedule.task = 0; pe = 0; start = 0.; finish = 1. } |]
      ~transactions:[||]
  in
  let out = Gantt.render platform g s in
  Alcotest.(check bool) "renders something" true (String.length out > 0)

let suite =
  [
    Alcotest.test_case "renders all PEs" `Quick test_renders_all_pes;
    Alcotest.test_case "link rows present" `Quick test_link_rows_present;
    Alcotest.test_case "row width respected" `Quick test_row_width_respected;
    Alcotest.test_case "busy cells marked" `Quick test_busy_cells_marked;
    Alcotest.test_case "degenerate schedule" `Quick test_empty_schedule;
  ]
