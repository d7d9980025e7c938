(** Bounded SIEVE memo for certified schedules, parsed graphs and
    refusals.

    Keys are the server's content-digest strings. The daemon serves one
    request at a time, so the cache holds no lock. Eviction is SIEVE (Zhang et al., NSDI '24,
    "SIEVE is Simpler than LRU"): entries sit in one FIFO queue in
    insertion order, a {!find} hit only sets the entry's visited bit,
    and at capacity a hand walks from the oldest entry towards the
    newest, clearing visited bits, and evicts the first unvisited entry
    it meets. An entry that was reused since the hand last passed it
    survives, however old; a one-time entry is evicted on the hand's
    next pass. Eviction is amortised O(1). Statistics (hits, misses,
    evictions) are monotonic over the cache's lifetime; a hit is a
    {!find} that found its key, whatever the caller then does with the
    value. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] on a non-positive capacity. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Records a hit (marking the entry visited) or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts at the newest end of the queue, evicting one entry when a
    genuine insertion would exceed capacity. Replacing an existing key
    keeps its queue position, marks it visited and never evicts. *)

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int

val keys : 'a t -> string list
(** Current keys, newest insertion first (for tests and stats). *)
