(** Deterministic fan-out over a fixed-size domain pool.

    The determinism contract: [map_range ~n f] returns exactly
    [List.init n f] — same values, same order, bit for bit — for every
    job count and chunk size. Workers claim chunks of the index range
    dynamically from an atomic counter and write each result into its
    own slot, so parallelism never reorders or perturbs results; it only
    changes wall-clock time.

    Safety contract for callers: [f] must not mutate state shared
    between indices. Trials that share a platform must warm its route
    memo first ({!Noc_noc.Platform.warm_routes}) so the domains only
    read it. *)

val default_jobs : unit -> int
(** The [NOCSCHED_JOBS] environment variable when set (raises
    [Invalid_argument] if it is not a positive integer), otherwise
    [Domain.recommended_domain_count ()]. *)

val map_range : ?jobs:int -> ?chunk:int -> n:int -> (int -> 'a) -> 'a list
(** [map_range ~jobs ~chunk ~n f] is [List.init n f] computed on up to
    [jobs] domains (including the calling one), claimed [chunk] indices
    at a time (default 1 — campaign trials are coarse enough that
    per-index claiming balances best). [jobs] defaults to
    {!default_jobs}. With [jobs = 1] or [n <= 1] no domain is spawned.

    Every index is evaluated even if one raises; afterwards the
    exception of the smallest failing index is re-raised — the same one
    a serial left-to-right run would have surfaced. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list f items] is [List.map f items] with the same contract as
    {!map_range}, one item claimed at a time. *)
