(** 128-bit powers of five for the Eisel–Lemire float reader in
    {!Scan}. The generating rule is in the implementation; the test
    suite re-derives every entry. *)

val min_exponent : int
(** -342: below it every decimal with at most 19 digits reads as 0. *)

val max_exponent : int
(** 308: above it every nonzero decimal reads as infinity. *)

val table : int64 array
(** [table.(2 * (q - min_exponent))] and the word after it are the high
    and low 64 bits of the entry for 5{^q}. *)
