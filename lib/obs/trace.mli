(** Span/event tracer with Chrome trace-event export.

    Spans are nestable timed regions with structured attributes. Each
    domain records into its own buffer (registered through
    [Domain.DLS]), so spans from {!Noc_util.Pool} workers carry their
    domain id and the exported trace shows one Chrome "process" per
    domain — Perfetto and [chrome://tracing] render the campaign's
    domain pool as parallel lanes.

    Cost model: a disabled [span] is one branch on an [Atomic.t] flag
    plus the call; attributes are built by a thunk that is only forced
    when the span is recorded. Span durations also feed a histogram
    under the span's name (see {!Counters.summaries}) so [--stats] can
    report p50/p95/max phase times without separate instrumentation. *)

type value = String of string | Int of int | Float of float | Bool of bool

val set_enabled : bool -> unit
(** Enabling (re)starts the trace epoch: subsequent timestamps are
    relative to this instant. *)

val is_enabled : unit -> bool

val span : ?cat:string -> ?args:(unit -> (string * value) list) -> string ->
  (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a timed span. The span is recorded
    even when [f] raises (the exception is re-raised). Spans on one
    domain are well-nested by construction. *)

val event_count : unit -> int
(** Number of events recorded since the last reset, over all domains. *)

val export : unit -> string
(** The recorded trace as Chrome trace-event JSON (schema
    [nocsched/trace/v1]): object format with a [traceEvents] array of
    ["X"] events ([pid] = [tid] = domain id), ["M"] process-name
    metadata per domain, one ["C"] counter event carrying the final
    {!Counters.snapshot}, and [otherData] holding the schema name plus
    counter and histogram summaries. Call after parallel sections have
    been joined. *)

val reset : unit -> unit
(** Drop all recorded events (buffers of finished domains included). *)
