(** The original probing implementation of EAS Step 2, kept verbatim as
    the differential-test oracle for {!Noc_eas.Level_sched} — the same role
    [Timeline_reference] plays for the indexed timeline.

    Every F(i,k) candidate is evaluated by actually reserving the
    receiving transactions on the shared link tables through
    {!Noc_sched.Resource_state} and rolling the journal back afterwards
    ("the schedule tables of both links and the PEs will be restored
    every time a F(i,k) is calculated"). Transactions are placed by the
    frozen route-list copy of Fig. 3 in
    {!Noc_oracle.Rebuild_reference.schedule_incoming}, so the optimised
    {!Noc_sched.Comm_sched} is checked too. This is the semantics the
    flat-array kernel path must reproduce bit for bit; the
    [test_kernel_diff] suite runs both implementations over a 50-seed
    corpus and asserts identical placements, transactions and decision
    logs. Do not optimise this module. *)

val run :
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_eas.Budget.t ->
  Noc_sched.Schedule.t
(** See {!Noc_eas.Level_sched.run}: same contract, same results, no kernel and
    no parallel candidate loop. *)
