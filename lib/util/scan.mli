(** One text scanner for every line-oriented input format, and the
    number reader and printer they share.

    {b Numbers.} {!float_sub} reads plain decimals,
    [[-+]?d*[.d*][eE[-+]d+]] with at least one mantissa digit, in place:
    Clinger's exact fast path when the decimal significand is at most
    2{^53} and the power of ten at most 10{^22} in magnitude, else the
    Eisel–Lemire algorithm (Lemire, {i Number Parsing at a Gigabyte per
    Second}, 2021) over the 128-bit powers of five in {!Pow5}. A token
    outside that grammar ([1_000], [0x10], [inf], [nan], …) or one the
    fast path cannot settle (more than 18 significant digits, a power of
    ten outside the table, a subnormal or infinite result, an undecided
    rounding) is read by [float_of_string] on a copy of the token. The
    accepted language and every result bit are therefore exactly those
    of [float_of_string]. {!int_sub} does the same for
    [int_of_string]: [-?d{1,18}] in place, anything else on a copy.

    {b Lines.} A cursor ({!t}) walks a text line by line. Tokens are
    maximal runs of bytes other than space, tab, newline and [#]; a [#]
    starts a comment that runs to the end of the line. Each line's
    tokens are recorded as offsets into the text, so reading a line
    allocates nothing; keywords are compared in place and numbers read
    in place. Lines and columns are 1-based and count bytes. *)

exception Malformed
(** Raised by the number readers when [float_of_string] or
    [int_of_string] would fail on the token. *)

val float_sub : string -> int -> int -> float
(** [float_sub s start len] is [float_of_string (String.sub s start len)],
    bit for bit, raising {!Malformed} where that raises. *)

val int_sub : string -> int -> int -> int
(** [int_sub s start len] is [int_of_string (String.sub s start len)],
    raising {!Malformed} where that raises. *)

val add_g : Buffer.t -> precision:int -> float -> unit
(** Appends exactly what [Printf.sprintf "%.*g" precision] gives, for
    [precision] from 1 to 17 (others raise [Invalid_argument]). The
    digits are exact: a double [m * 2{^e}] is scaled by [10{^s}] in
    integer arithmetic ([m * 5{^s}] in 128 bits, shifted by [e + s], or
    an exact quotient for [s < 0]) and rounded half to even on the exact
    remainder, as glibc's printf does. Where that cannot settle (zero
    aside, a subnormal or non-finite value, [s] past 27 or a quotient
    past 2{^62}: outside about [1e-11 <= |v| < 4.6e18] at precision 17,
    wider at lower precisions) the C conversion prints instead. About
    0.1 µs a float against 0.5-1 µs for [Printf]. *)

val try_add_g : Buffer.t -> precision:int -> float -> bool
(** Appends the {!add_g} form only when {!float_sub} reads it back to
    the same float, and says whether it did. The check is made on the
    digits (Clinger's exact path, else Eisel–Lemire) without building a
    string. *)

val add_float : Buffer.t -> float -> unit
(** The [%g] form of a float at precision 12 when it reads back to the
    same float, else at precision 17 (which always does). The shared printer of every text
    format that {!float_sub} reads; [Ctg_io] and [Schedule_io] write
    with it straight into their buffers. *)

val float_to_string : float -> string
(** {!add_float} as a string. *)

val add_int : Buffer.t -> int -> unit
(** Appends the decimal form of the integer, as [string_of_int]. *)

val add_hex_float : Buffer.t -> float -> unit
(** Appends the hexadecimal form of the float, byte for byte what
    [Printf]'s [h] conversion gives ([0x1.8p+1], [-0x0p+0],
    [0x0.0000000000001p-1022], [infinity], [-nan]), without the format
    interpreter or an intermediate string. The one printer of every
    bit-exact text: content digests, DVFS annotations, V/f ladders. *)

val position : string -> int -> int * int
(** [position text offset] is the 1-based (line, column) of byte
    [offset] in [text]. *)

val located : string -> int -> string -> string
(** [located text offset msg] is [msg] prefixed with
    ["line L, col C: "], the position of byte [offset] in [text]. *)

val find : string -> char -> int -> int -> int
(** [find s c start stop] is the first index of [c] in
    [s.[start .. stop - 1]], or [-1]. *)

(** {1 Line cursor} *)

type t

val of_string : string -> t
(** A cursor before the first line of the text. *)

val next_line : t -> bool
(** Advances to the next line and records its tokens; [false] once
    every line has been read. A text with [k] newlines has [k + 1]
    lines, the last possibly empty. *)

val line : t -> int
(** The current line number. *)

val count : t -> int
(** Tokens on the current line. *)

val col : t -> int -> int
(** [col t i] is the column where token [i] of the current line
    starts. Token indices run from 0 to [count t - 1]; others raise
    [Invalid_argument]. *)

val is : t -> int -> string -> bool
(** [is t i word]: token [i] is exactly [word]. *)

val token : t -> int -> string
(** A copy of token [i]. *)

val int : t -> int -> int
(** Token [i] read by {!int_sub}. *)

val float : t -> int -> float
(** Token [i] read by {!float_sub}. *)
