(** A single platform fault: one failed element over one time window.

    Faults are either permanent ([until_time = infinity]) or transient
    (a half-open window [[from_time, until_time)]). A failed PE cannot
    start or finish task executions while the fault is active; a failed
    directed link cannot carry transactions. Routers of failed PEs keep
    routing — only the core is down, not its switch. *)

type element = Link of Noc_noc.Routing.link | Pe of int

type t = { element : element; from_time : float; until_time : float }

val link :
  ?from_time:float -> ?until_time:float -> from_node:int -> to_node:int -> unit -> t
(** Directed-link fault; defaults to permanent from time 0. Failing
    [a -> b] leaves [b -> a] up. Raises [Invalid_argument] on an empty
    window or bad endpoints. *)

val pe : ?from_time:float -> ?until_time:float -> int -> unit -> t
(** PE fault; defaults to permanent from time 0. *)

val active_at : t -> time:float -> bool

val compare : t -> t -> int
(** Total order (PEs before links, then indices, then windows) used to
    canonicalise fault sets. *)

val compare_element : element -> element -> int

val of_string : string -> (t, string) result
(** Parses the CLI syntax: [pe:N] or [link:A-B], optionally followed by
    [@FROM:UNTIL] with either bound omitted. ["pe:2@100:"] fails PE 2
    from t = 100 on; ["link:3-7@10:20"] takes the directed link 3->7
    down during [10, 20); bare ["pe:2"] is permanent from time 0.
    Parse errors name the offending token, its line and column and the
    0-based character position where it starts: parsing
    ["link:12-1x"] fails with
    [line 1, col 9: bad link endpoint "1x" at character 8]. *)

val to_string : t -> string
(** Canonical inverse of {!of_string}. *)

val pp_element : Format.formatter -> element -> unit
