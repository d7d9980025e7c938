(** Wire protocol of the scheduling daemon (schema [nocsched/serve/v1]).

    Newline-delimited JSON over a Unix-domain socket: each request is
    one JSON object on one line, each reply one JSON object on one
    line, in request order per connection. JSON strings escape newlines,
    so inline CTG texts never break the framing.

    Requests ([op] selects the verb):

    {v
    {"op": "schedule",   "ctg": "<ctg text>", "mesh": "4x4",
     "algo": "eas", "decisions": false,
     "dvfs": false, "vf_levels": "1,0.8,0.6,0.5", "id": "r1"}
    {"op": "simulate",   "ctg": ..., "mesh": ..., "algo": ...,
     "faults": ["pe:1"], "self_timed": false, "id": ...}
    {"op": "reschedule", "ctg": ..., "mesh": ..., "algo": ...,
     "faults": ["pe:1", "link:3-7"], "id": ...}
    {"op": "stats"}
    {"op": "shutdown"}
    v}

    [ctg] is the {!Noc_ctg.Ctg_io} text format; [mesh] (default
    ["4x4"]) names the server-side platform (the same deterministic
    heterogeneous mesh the CLI builds); [algo] is [eas], [eas-base] or
    [edf] (default [eas]); [faults] uses the CLI fault syntax
    ({!Noc_fault.Fault.of_string}); [dvfs] (default [false]) asks for
    DVFS slack reclamation over the committed schedule, with
    [vf_levels] (a {!Noc_dvfs.Vf_table.of_string} ratio list, default
    the standard ladder) only legal alongside it; [id] is an opaque
    client correlation token echoed in the reply. Unknown fields are
    ignored.

    Replies always carry ["schema"] and ["ok"]; failures are structured
    — [{"ok": false, "error": "..."}] — never a dropped connection.
    Successful [schedule]/[reschedule] replies carry the schedule in
    {!Noc_sched.Schedule_io} text form (["schedule"]), the cache
    verdict (["cached"]), the cache key (["key"]) and the certifier
    verdict (["certified"], always [true] — uncertifiable schedules are
    refused). Replies are printed with {!Noc_obs.Json.to_string}, so
    equal replies are byte-equal. *)

val schema : string
(** ["nocsched/serve/v1"]. *)

type request =
  | Schedule of {
      ctg_text : string;
      mesh : int * int;
      algo : Noc_experiments.Runner.algo;
      decisions : bool;  (** Include the EAS decision log in the reply. *)
      dvfs : Noc_dvfs.Vf_table.t option;
          (** [Some table] reclaims slack with the given V/f ladder;
              folded into the cache key as its own segment. *)
    }
  | Simulate of {
      ctg_text : string;
      mesh : int * int;
      algo : Noc_experiments.Runner.algo;
      faults : string list;
      self_timed : bool;
    }
  | Reschedule of {
      ctg_text : string;
      mesh : int * int;
      algo : Noc_experiments.Runner.algo;
      faults : string list;
    }
  | Stats
  | Shutdown

val op_name : request -> string
(** The wire verb: ["schedule"], ["simulate"], ... *)

val parse_mesh : string -> (int * int, string) result
(** ["COLSxROWS"] (either case of [x]) with positive integer sides. *)

val mesh_name : int * int -> string
(** [(4, 4)] as ["4x4"]. *)

val parse_request : string -> (request * string option, string) result
(** Parse one request line into the request and its optional [id].
    Errors name the offending field or byte offset and are safe to echo
    back to the client. *)

val request_to_line : ?id:string -> request -> string
(** The canonical one-line wire form of a request (no trailing
    newline). [parse_request (request_to_line r) = Ok (r, id)]. *)

val error_line : ?id:string -> string -> string
(** A structured failure reply: [{"schema": ..., "ok": false,
    "error": msg}] (plus ["id"] when given). No trailing newline. *)

val ok_line : ?id:string -> op:string -> (string * Noc_obs.Json.t) list -> string
(** A success reply carrying the given extra fields on top of
    ["schema"], ["ok"] and ["op"]. No trailing newline. *)

val write_line : Unix.file_descr -> string -> unit
(** [write_line fd line] writes [line] and a newline to a blocking
    descriptor, retrying short writes; the framing of both ends. *)
