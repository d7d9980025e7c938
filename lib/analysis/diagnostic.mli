(** Structured findings of the static-analysis passes.

    Every analyzer reports its findings as a list of diagnostics: a
    stable rule id (catalogued in DESIGN.md §7), a severity, a location
    in one of the three model layers and a human-readable message. The
    list is what the [nocsched analyze] command renders as text or as a
    machine-readable JSON report, and what drives its lint-style exit
    code (0 clean, 1 warnings, 2 errors). *)

type severity = Error | Warning | Info

type location =
  | Nowhere  (** A whole-model finding with no better anchor. *)
  | Task of int  (** A CTG task id. *)
  | Edge of int  (** A CTG edge id (also anchors its transaction). *)
  | Pe of int
  | Tile of int
  | Link of Noc_noc.Routing.link
  | Route of int list
      (** A concrete route (tile sequence), used as the counterexample
          witness of the [routing/*] rules. *)
  | Channel_cycle of Noc_noc.Routing.link list
      (** A cyclic chain of channel dependencies; the first link is
          repeated implicitly after the last. *)

type t = {
  rule : string;  (** Stable id, ["layer/finding"], e.g. ["sched/pe-overlap"]. *)
  severity : severity;
  location : location;
  message : string;
}

val error : rule:string -> location -> ('a, unit, string, t) format4 -> 'a
val warning : rule:string -> location -> ('a, unit, string, t) format4 -> 'a
val info : rule:string -> location -> ('a, unit, string, t) format4 -> 'a

val sort : t list -> t list
(** Canonical report order: severity (errors first), then rule id,
    then location, then message. [to_json] and the CLI both emit
    diagnostics in this order, which makes reports stable across runs. *)

val count : t list -> int * int * int
(** [(errors, warnings, infos)]. *)

val exit_code : t list -> int
(** Lint-style: [2] if any error, else [1] if any warning, else [0]. *)

val pp : Format.formatter -> t -> unit
(** ["severity rule [location]: message"]. *)

val to_json : ?routing:string -> ?faults:string list -> t list -> string
(** The machine-readable report (schema [nocsched/analysis/v2]), printed
    by the canonical {!Noc_obs.Json.to_string} plus a newline:
    diagnostics in {!sort} order plus an error/warning/info summary.
    The v2 header records the analyzed routing function ([routing],
    default ["xy"]) and a fault-set summary ([faults], the canonical
    fault strings the analysis ran under, default empty). v2 is a
    strict superset of v1 — diagnostics and summary are unchanged — so
    v1 readers that ignore unknown top-level fields keep working.
    Documented in DESIGN.md §7 and §12. *)
