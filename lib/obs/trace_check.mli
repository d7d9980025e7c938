(** Structural validator for exported Chrome traces (schema
    [nocsched/trace/v1]).

    Checks, in order: the document parses; [traceEvents] is an array of
    objects each carrying a valid phase with the fields that phase
    requires; every ["X"] span has a non-negative [dur]; spans are
    well-nested per pid (each domain's spans form a forest — two spans
    on one domain either nest or are disjoint, up to a small float
    tolerance); [otherData.schema] names this schema. With
    [~require_counters:true] (default [false]) the trace must also
    contain at least one ["C"] counter event and a non-empty
    [otherData.counters] object. *)

val check_file : ?require_counters:bool -> string -> (unit, string) result
(** [check_file path] validates the trace document in [path]; the error
    is a one-line human-readable reason (or the reason the file could
    not be read). *)
