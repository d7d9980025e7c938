(** The scheduling daemon: a Unix-domain-socket server around the EAS
    machinery.

    One [run] call owns one listening socket and serves {!Protocol}
    requests until a [shutdown] request arrives. Architecture:

    - {b Warm state.} Platforms (one per requested mesh geometry) are
      built once, their route memos eagerly warmed, and kept resident;
      flat-array {!Noc_eas.Kernel} matrices are memoized per
      (CTG, platform) digest pair in their own {!Cache}, so a
      cache-missed request pays the build at most once. A kernel
      records the graph it was built for, and a fresh run schedules
      and certifies that graph ({!Noc_eas.Kernel.ctg}), so another
      text of a digest-equal graph reuses it.
    - {b Schedule cache.} Results are memoized in a SIEVE {!Cache}
      keyed by [algo:ctg:platform:faults:dvfs], content digests of
      everything a served schedule depends on: the algorithm, the
      graph ({!Noc_ctg.Ctg.digest}, which covers the declaration order
      of edges, since the scheduler breaks ties by edge id), the
      platform ({!Noc_noc.Platform.digest}), the fault set and the V/f
      ladder (["-"] without DVFS). A hit is therefore the schedule the
      CLI computes for the same graph. Every entry was certified by
      {!Noc_analysis.Certify} when it was inserted — a schedule the
      certifier rejects is returned as an error and never cached — and
      hits are served without re-certification.
    - {b Refusal memo.} The certifier's refusal of an unfaulted
      schedule is memoised under the key its success would have been
      cached under, so a retry (or a reschedule or DVFS request on the
      same base) is answered with the same bytes without re-running
      the scheduler. Malformed requests, PE-count mismatches and
      internal errors are never memoised.
    - {b Incremental rescheduling.} [reschedule] requests run the
      {!Noc_eas.Fault_resched} migrate → rebuild → repair ladder
      against the cached base schedule instead of a full EAS re-run;
      the base is computed (and cached) on demand.
    - {b Connections.} A [select] loop multiplexes any number of
      client connections and handles their complete request lines one
      at a time, in arrival order, in the daemon's one domain; the
      caches and warm platforms therefore hold no lock. Responses go
      only to the connection that asked.
    - {b Observability.} Per-op request latencies land in
      [serve/<op>] histograms and cache traffic in [serve.cache.*]
      counters ({!Noc_obs.Counters}); the [stats] request (and the
      CLI's [--stats]) surfaces p50/p99 and cache hit rates. *)

type config = {
  socket_path : string;
  capacity : int;  (** Schedule-cache entries (default 64). *)
}

val default_config : socket_path:string -> config

type state
(** Warm platforms, kernel memo, schedule cache and refusal memo,
    shared by every request the daemon serves. *)

val make_state : config -> state
(** A server state without a socket — tests and the in-process bench
    drive it through {!handle_line} directly. *)

val handle_line : state -> string -> string * bool
(** Process one request line against the server state, returning the
    reply line (no trailing newline) and whether the request asked for
    shutdown. Never raises: internal failures become structured error
    replies. *)

val max_request_bytes : int
(** The longest request line the daemon accepts: 32 MiB, above the
    ~20 MB text of a 2000-task graph on the 16x16 mesh. A connection
    whose line grows past it gets one structured error reply whose
    message starts with ["request-too-large"] and is then closed; other
    connections are served as before. *)

(** Splits a connection's byte stream into request lines. *)
module Line_buffer : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> int -> string list
  (** [feed t chunk off len] appends [len] bytes of [chunk] from [off]
      and returns the lines they complete, in order and without their
      newlines; an unterminated tail waits for the next call. Linear in
      [len] plus the length of the lines it returns. A line longer than
      {!max_request_bytes} (terminated or not) is dropped and marks [t]
      {!overflowed}: the lines before it are still returned, and every
      later [feed] returns [[]]. *)

  val overflowed : t -> bool
end

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Binds [socket_path] (unlinking any stale socket file first),
    listens, serves until a [shutdown] request, then closes every
    connection and removes the socket file. [on_ready] fires once the
    socket is listening — tests and in-process benches use it instead
    of polling. Raises [Unix.Unix_error] when the socket cannot be
    bound. *)
