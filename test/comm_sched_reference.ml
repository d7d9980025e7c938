(* The list-based Fig. 3 entry points Comm_sched exported before every
   scheduler placed tasks through Noc_sched.List_sched, kept verbatim:
   the path the shared step's differential test compares against. *)

module Schedule = Noc_sched.Schedule
module Resource_state = Noc_sched.Resource_state
open Noc_sched.Comm_sched

let place ?model ?degraded state pending ~dst_pe =
  let src_pe = pending.src_pe in
  let window =
    transmit ?model ?degraded state ~src_pe ~dst_pe ~sender_finish:pending.sender_finish
      ~bits:pending.bits
  in
  {
    Schedule.edge = pending.edge;
    src_pe;
    dst_pe;
    route = route ?degraded (Resource_state.platform state) ~src_pe ~dst_pe;
    start = window.Noc_util.Interval.start;
    finish = window.Noc_util.Interval.stop;
  }

let schedule_incoming ?model ?degraded state lct ~dst_pe =
  let sorted = sort_pendings lct in
  let placed = List.map (fun p -> place ?model ?degraded state p ~dst_pe) sorted in
  let drt =
    List.fold_left (fun acc tr -> Float.max acc tr.Schedule.finish) 0. placed
  in
  (placed, drt)
