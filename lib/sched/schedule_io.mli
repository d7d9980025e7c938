(** Plain-text serialisation of schedules.

    A schedule is stored as one line per placement and per transaction,
    plus (format version 3) one line per task carrying its DVFS
    annotation:

    {v
    schedule 3
    place <task> pe <pe> start <t> finish <t>
    trans <edge> via <n0>,<n1>,... start <t> finish <t>
    dvfs <task> level <l> freq <r> energy <e>
    v}

    The [via] field records the transaction's route verbatim, so
    detour-routed schedules produced for degraded platforms round-trip
    exactly. {!of_string_full} also accepts the legacy version-1 format
    (header [schedule 1], no [via] field), re-deriving each route as the
    platform's deterministic one, and version 2 (no [dvfs] lines — every
    task implicitly runs at f_max). Floats round-trip exactly: [place]
    and [trans] times use the shortest decimal that reads back
    bit-identically, [dvfs] frequencies and energies are written as
    hexadecimal floats ({!Noc_util.Scan.add_hex_float}) so scaled
    schedules round-trip bit-exactly. *)

type annotation = {
  task : int;
  level : int;  (** index into the V/f table, 0 = f_max *)
  freq : float;  (** normalised frequency ratio f/f_max in (0, 1] *)
  energy : float;  (** scaled Eq.-3 computation energy of the task *)
}
(** Per-task DVFS annotation carried by format version 3. The type lives
    here (not in [noc_dvfs]) so the certifier can check scaled schedules
    without depending on the power-management subsystem. *)

val to_string : ?dvfs:annotation array -> Schedule.t -> string
(** Without [dvfs] the output is a version-2 file, bit-identical to what
    earlier releases wrote. With [dvfs] (one annotation per task, in
    task order) the header becomes [schedule 3] and one [dvfs] line per
    task is appended. Raises [Invalid_argument] if the annotation array
    does not cover the schedule's tasks exactly. *)

val of_string_full :
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  string ->
  (Schedule.t * annotation array option, string) result
(** The schedule and its DVFS annotations ([None] for version 1/2
    files, or a version-3 file with no [dvfs] lines: every task at
    f_max). Fields are separated by spaces or tabs; [#] starts a
    comment. Structural errors (unknown ids, bad numbers, a route
    through a missing node) read ["line L, col C: <description>"],
    naming the offending token; a line of unknown shape is reported as
    [unknown keyword "<first token>"], and missing lines (e.g. [task 3
    missing]) carry no position. When any [dvfs] line is present, every
    task must have exactly one, the header must say [schedule 3],
    frequencies must lie in (0, 1] and energies must be finite and
    non-negative. The result is {e not} validated for feasibility — the
    validator ({!module:Validate}) or the certifier checks that. *)

val save : ?dvfs:annotation array -> path:string -> Schedule.t -> unit

val load_full :
  path:string ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  (Schedule.t * annotation array option, string) result
(** {!of_string_full} on the file's text. *)
