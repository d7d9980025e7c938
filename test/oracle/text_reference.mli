(** The format-string printers that preceded the direct buffer writers
    of {!Noc_util.Scan.add_hex_float}, {!Noc_util.Fnv.fold},
    {!Noc_ctg.Ctg.digest}, {!Noc_obs.Json.escape_string},
    {!Noc_sched.Schedule_io.to_string}, {!Noc_util.Scan.float_to_string}
    and the JSON number printers, kept verbatim so qcheck properties can
    require the replacements to print the same bytes. Never use this
    outside tests. *)

val hex_float : float -> string
(** [Printf.sprintf "%h"]. *)

val fnv1a64 : string -> int64
(** FNV-1a-64 folded by a [String.iter] closure. *)

val ctg_digest : Noc_ctg.Ctg.t -> string
(** The [ctg-digest/v2] text built with [Printf.sprintf] per field, arcs
    in edge-id order, hashed by {!fnv1a64}. *)

val escape_string : string -> string
(** The char-by-char JSON string escaper. *)

val float_to_string : float -> string
(** [Printf]'s [%.12g] when [float_of_string] reads it back to the same
    float, else [%.17g]. *)

val json_number : float -> string
(** [%.17g] for finite floats; ["inf"], ["-inf"] and ["nan"] as quoted
    strings. *)

val json_shortest_number : float -> string
(** [%.0f] for integral floats below [1e16] in magnitude, else the first
    of [%.15g], [%.16g] and [%.17g] that [float_of_string] reads back;
    non-finite values as in {!json_number}. *)

val decision_json :
  run:string ->
  seq:int ->
  task:int ->
  rule:string ->
  chosen:int ->
  budgeted_deadline:float ->
  finishes:float array ->
  string
(** One decision-log record, built with [Printf.sprintf] per candidate
    and per record. *)

val schedule_to_string :
  ?dvfs:Noc_sched.Schedule_io.annotation array -> Noc_sched.Schedule.t -> string
(** The [Printf.ksprintf] schedule writer. *)
