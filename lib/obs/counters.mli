(** Counter and histogram registry for scheduler internals.

    Counters are monotonic, domain-safe ([Atomic.t] cells) and cheap: a
    disabled increment is a single branch on the global enabled flag.
    Only *deterministic* quantities are counted — numbers of tentative
    F(i,k) evaluations, snapshots, transactions — so counter totals are
    bit-identical at every [--jobs] count (sums commute). Wall-clock
    quantities go in histograms, which are excluded from determinism
    comparisons.

    Handles are interned by name: [counter "x"] twice returns the same
    cell, so instrumented modules declare their handles at module
    initialisation and the registry survives resets. *)

val set_enabled : bool -> unit

type counter

val counter : string -> counter
(** Find or create the counter registered under [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val snapshot : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name.
    Counters that were never incremented report 0. *)

type histogram

val histogram : string -> histogram
(** Find or create the histogram registered under [name]. *)

val observe : histogram -> float -> unit
(** Record a sample (no-op while disabled). Thread-safe; intended for
    coarse events (phase durations), not per-F(i,k) hot paths. *)

type summary = {
  count : int;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summaries : unit -> (string * summary) list
(** Non-empty histograms with their summaries, sorted by name. Samples
    are sorted before the percentiles are taken, so a summary depends
    only on the sample multiset, not on arrival order. *)

val reset : unit -> unit
(** Zero every counter and drop every histogram's samples; handles stay
    valid. *)
