(** Independent semantic validation of a schedule.

    Checks the four feasibility conditions of the paper's problem
    formulation (Sec. 4) plus structural consistency:

    - all tasks are pairwise compatible (Definition 4: same-PE executions
      do not overlap);
    - all communication transactions are pairwise compatible
      (Definition 3: transactions whose routes share a link do not
      overlap in time);
    - all control/data dependencies are satisfied (a transaction starts
      no earlier than its sender finishes; a task starts no earlier than
      each incoming transaction arrives);
    - every specified deadline is met;
    - placements and transactions are structurally consistent with the
      CTG and the platform: durations match the cost tables and the
      bandwidth, and every recorded route is a real walk through the
      fabric (starts at the sender's tile, ends at the receiver's, moves
      only along topology links, reserves no link twice). Routes are
      checked against the {e schedule's recorded links}, not recomputed
      deterministic routes, so detour-routed schedules produced for
      degraded platforms validate.

    The validator shares no code with the schedulers' internal
    book-keeping, so it catches scheduler bugs rather than reproducing
    them. A fixed tolerance of 1e-6 absorbs floating-point noise. *)

type violation =
  | Malformed of string
  | Task_overlap of { pe : int; task_a : int; task_b : int }
  | Link_conflict of { link : Noc_noc.Routing.link; edge_a : int; edge_b : int }
  | Dependency of { edge : int; detail : string }
  | Deadline_miss of { task : int; deadline : float; finish : float }

val check : Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> Schedule.t -> violation list
(** All violations found, deterministically ordered. *)

val is_feasible : Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> Schedule.t -> bool

val pp_violation : Format.formatter -> violation -> unit
