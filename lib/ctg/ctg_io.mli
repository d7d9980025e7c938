(** Plain-text serialisation of Communication Task Graphs.

    The paper's workloads arrive as TGFF files; this module plays that
    role for the library with a line-oriented format that round-trips
    the full data model (per-PE cost arrays, deadlines, volumes):

    {v
    ctg 1
    pes 4
    task 0 name framer deadline 25000
      times 10 12.5 9 14
      energies 5 6 4 8
    task 1 name mdct
      times 30 22 28 40
      energies 15 11 14 24
    edge 0 from 0 to 1 volume 48000
    v}

    [ctg 1] is the format version; [pes N] fixes the cost-array length;
    tasks and edges must appear in id order (ids are dense, as in
    {!Ctg}). Blank lines and [#]-comments are ignored; fields are
    separated by spaces or tabs. Task names must not contain whitespace
    or [#]. Floats round-trip exactly: they are written by
    {!Noc_util.Scan.float_to_string} and read by
    {!Noc_util.Scan.float_sub}, which agrees with [float_of_string] bit
    for bit. *)

val to_string : Ctg.t -> string

val of_string : string -> (Ctg.t, string) result
(** An error about one token reads ["line L, col C: <description>"]
    (1-based, counting bytes), e.g.
    [line 4, col 11: times: not a number ("x")]. Errors about the text
    as a whole ([missing header line (ctg 1)], [task 3 lacks times],
    anything {!Ctg.make} rejects) carry no position. The graph is
    re-validated through {!Ctg.make}. *)

val save : path:string -> Ctg.t -> unit
(** Raises [Sys_error] on I/O failure. *)

val load : path:string -> (Ctg.t, string) result
