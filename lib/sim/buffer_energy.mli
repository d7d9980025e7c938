(** Buffering energy, the term the paper's Eq. (1) deliberately omits.

    The paper adopts [E_bit = E_Sbit + E_Lbit] precisely because the
    buffering component [E_Bbit] "is a parameter tightly coupled with
    the network congestion whose accurate value can only be measured by
    time-consuming simulations". This module performs that measurement:
    replaying a schedule on the {!Executor} yields, per transaction, the
    time its payload sat in router buffers waiting for its route; the
    buffering energy is then

    {[ E_B = sum over edges of volume(e) * e_bbit * waiting(e) ]}

    with [e_bbit] in nJ per bit per time unit of residence.

    The point the measurement makes: a contention-aware schedule never
    blocks (waiting is identically zero), so Eq. (1) is {e exact} for
    EAS schedules — the approximation only loses accuracy for schedules
    that ignore contention. *)

val estimate : Noc_ctg.Ctg.t -> Executor.outcome -> float
(** Total buffering energy (nJ) of one replay, summed in edge-id order.
    [e_bbit] is a register-file-based holding cost of the same
    magnitude as the switch energy: [1e-5] nJ per bit per microsecond. *)
