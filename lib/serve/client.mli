(** Minimal blocking client for the scheduling daemon.

    One connection, one line-oriented conversation: write a request
    line, read the reply line. Used by the CLI's [serve --call] mode,
    the smoke test and the benches; it is deliberately synchronous —
    concurrency belongs to the daemon, which multiplexes any number of
    these. *)

type t

val connect : ?retries:int -> socket_path:string -> unit -> t
(** Connects to the daemon's Unix socket. [retries] (default 0) extra
    attempts are made 50 ms apart — enough for a freshly forked daemon
    to reach [listen]. Raises [Unix.Unix_error] when the last attempt
    fails. *)

val request : t -> string -> string
(** [request t line] sends [line] (a newline is appended) and blocks
    for the single reply line. Raises [End_of_file] if the daemon
    closes the connection first. *)

val close : t -> unit

val with_connection : socket_path:string -> (t -> 'a) -> 'a
(** Connect (one attempt), run, always close. *)

val one_shot : ?retries:int -> socket_path:string -> string -> string
(** A whole conversation of one request, connecting as {!connect}. *)
