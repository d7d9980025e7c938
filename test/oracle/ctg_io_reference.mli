(** The split-based CTG text parser that preceded the scanner port of
    {!Noc_ctg.Ctg_io.of_string}: lines split on newlines, words on
    spaces and tabs, numbers read by [float_of_string_opt] and
    [int_of_string_opt] on fresh substrings. Errors name the line only.
    Never use this outside tests. *)

val of_string : string -> (Noc_ctg.Ctg.t, string) result
