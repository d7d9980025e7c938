(** Periodic unrolling of a task graph over several iterations.

    The paper's multimedia applications are periodic — a frame arrives
    every [1/rate] — but its CTGs describe a single iteration. Unrolling
    materialises [copies] consecutive iterations in one graph: instance
    [k] of every task is shifted by [k * period] (source tasks receive a
    release at the frame arrival, existing releases and deadlines shift
    by [k * period]), so scheduling the unrolled graph answers the
    steady-state question the frame rates pose: can the platform sustain
    the rate by pipelining frames, even when one frame's latency exceeds
    the period?

    Optionally, [carried] arcs connect instance [k] of a task to
    instance [k+1] of (possibly another) task, modelling loop-carried
    state such as a video encoder's reference-frame store. *)

type carried = {
  from_task : int;  (** Producer in iteration [k]. *)
  to_task : int;  (** Consumer in iteration [k + 1]. *)
  volume : float;  (** Bits. *)
}

val periodic :
  ?carried:carried list -> Ctg.t -> period:float -> copies:int -> Ctg.t
(** [periodic ctg ~period ~copies] builds the unrolled graph. Task [i]
    of instance [k] has id [k * n + i] and name ["<name>@k"]. Raises
    [Invalid_argument] on non-positive period or copies, or on carried
    arcs referencing unknown tasks. *)
