(** The format-string printers that preceded the direct buffer writers
    of {!Noc_util.Scan.add_hex_float}, {!Noc_util.Fnv.fold},
    {!Noc_ctg.Ctg.digest}, {!Noc_obs.Json.escape_string} and
    {!Noc_sched.Schedule_io.to_string}, kept verbatim so qcheck
    properties can require the replacements to print the same bytes.
    Never use this outside tests. *)

val hex_float : float -> string
(** [Printf.sprintf "%h"]. *)

val fnv1a64 : string -> int64
(** FNV-1a-64 folded by a [String.iter] closure. *)

val ctg_digest : Noc_ctg.Ctg.t -> string
(** The [ctg-digest/v1] text built with [Printf.sprintf] per field and a
    polymorphic tuple sort of the arcs, hashed by {!fnv1a64}. *)

val escape_string : string -> string
(** The char-by-char JSON string escaper. *)

val schedule_to_string :
  ?dvfs:Noc_sched.Schedule_io.annotation array -> Noc_sched.Schedule.t -> string
(** The [Printf.ksprintf] schedule writer. *)
