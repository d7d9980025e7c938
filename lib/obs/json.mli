(** Minimal JSON support: a hand-rolled parser (no external
    dependencies) for the trace schema checker and tests, plus the
    escaping helpers the exporters share. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict RFC-8259 subset: objects, arrays, strings (with the standard
    escapes incl. [\uXXXX], decoded byte-wise without surrogate-pair
    recombination), numbers, [true]/[false]/[null]. Trailing garbage is
    an error. Errors read ["at byte N, line L, col C: <description>"].
    Numbers are read by {!Noc_util.Scan.float_sub}, so they get exactly
    the bits [float_of_string] would give. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

val to_string : t -> string
(** Canonical printer: object keys sorted (byte order, duplicates kept
    in input order), no insignificant whitespace, floats in the shortest
    [%g] form (precision 15, 16 or 17) that round-trips through
    [float_of_string], integral floats below [1e16] printed without a
    fractional part. Numbers are written straight into the output
    buffer by {!Noc_util.Scan.try_add_g}, which checks the read-back on
    the digits: about 0.2 µs a non-integral float, where two or three
    [Printf] conversions and [float_of_string] calls took ~2.7 µs. Two structurally equal documents therefore print
    identically, so printed forms can be compared byte for byte (the
    serve protocol's cache-identity tests rely on this).
    [parse (to_string v)] is [Ok v] for every [v] free of non-finite
    numbers; infinities and NaN print as the strings ["inf"], ["-inf"]
    and ["nan"] (the {!number} convention), which parse back as
    [String]s. *)

val int : int -> t
(** [int n] is [Number (float_of_int n)]. *)

val fixed : int -> float -> t
(** [fixed digits f] is [f] rounded to [digits] decimals (as [%.*f]
    would print it) as a [Number], for reports that record measurements
    at a fixed precision rather than every bit of the float. *)

val escape_string : string -> string
(** [escape_string s] is [s] as a quoted JSON string literal. *)

val add_escaped : Buffer.t -> string -> unit
(** Appends {!escape_string}[ s], copying runs of plain bytes whole. *)

val number : float -> string
(** A finite float as a JSON number ([%g] at precision 17,
    round-trippable);
    infinities and NaN — JSON has no literal for them — are encoded as
    the strings ["inf"], ["-inf"] and ["nan"]. *)

val add_number : Buffer.t -> float -> unit
(** Appends {!number}[ f], written by {!Noc_util.Scan.add_g}: about
    0.1 µs for a value of everyday magnitude, where [Printf] took
    0.5-1 µs. *)
