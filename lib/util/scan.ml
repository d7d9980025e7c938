exception Malformed

(* ------------------------------------------------------------------ *)
(* Numbers                                                             *)

let[@inline] digit_at s i = Char.code (String.unsafe_get s i) - 48
let[@inline] is_digit d = d lor (9 - d) >= 0

(* 10^0 .. 10^22: every one is exact in a double. *)
let exact_pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13;
    1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

(* Number of significant bits of [x > 0]. *)
let bit_length x =
  let n = ref 1 and x = ref x in
  if !x lsr 32 <> 0 then (n := !n + 32; x := !x lsr 32);
  if !x lsr 16 <> 0 then (n := !n + 16; x := !x lsr 16);
  if !x lsr 8 <> 0 then (n := !n + 8; x := !x lsr 8);
  if !x lsr 4 <> 0 then (n := !n + 4; x := !x lsr 4);
  if !x lsr 2 <> 0 then (n := !n + 2; x := !x lsr 2);
  if !x lsr 1 <> 0 then n := !n + 1;
  !n

(* High 64 bits of the unsigned 128-bit product [a * b]. *)
let[@inline] umul_hi a b =
  let mask = 0xFFFF_FFFFL in
  let a0 = Int64.logand a mask and a1 = Int64.shift_right_logical a 32 in
  let b0 = Int64.logand b mask and b1 = Int64.shift_right_logical b 32 in
  let p00 = Int64.mul a0 b0 and p01 = Int64.mul a0 b1 in
  let p10 = Int64.mul a1 b0 and p11 = Int64.mul a1 b1 in
  let mid =
    Int64.add
      (Int64.shift_right_logical p00 32)
      (Int64.add (Int64.logand p01 mask) (Int64.logand p10 mask))
  in
  Int64.add p11
    (Int64.add
       (Int64.shift_right_logical p01 32)
       (Int64.add (Int64.shift_right_logical p10 32) (Int64.shift_right_logical mid 32)))

let[@inline] unsigned_lt (a : int64) (b : int64) =
  Int64.add a Int64.min_int < Int64.add b Int64.min_int

(* Eisel-Lemire: the double nearest to [w * 10^q] for [0 < w < 2^62],
   or [nan] when the result would be subnormal or infinite, [q] is
   outside the table, or the 128-bit product cannot settle the rounding.
   The steps and constants follow fast_float's [compute_float] for
   binary64 (mantissa 52 explicit bits, exponent bias 1023). *)
let eisel_lemire ~negative w q =
  if q < Pow5.min_exponent || q > Pow5.max_exponent then Float.nan
  else
    let lz = 64 - bit_length w in
    let w = Int64.shift_left (Int64.of_int w) lz in
    let index = 2 * (q - Pow5.min_exponent) in
    let t_hi = Array.unsafe_get Pow5.table index in
    let first_lo = Int64.mul w t_hi and first_hi = umul_hi w t_hi in
    (* 55 bits (mantissa, hidden bit, rounding bit and one spare) are
       needed; only when the 9 bits below them are all ones can the low
       word of the table entry change them. *)
    let second_hi =
      if Int64.logand first_hi 0x1FFL = 0x1FFL then
        umul_hi w (Array.unsafe_get Pow5.table (index + 1))
      else 0L
    in
    let lo = Int64.add first_lo second_hi in
    let hi = if unsigned_lt lo second_hi then Int64.succ first_hi else first_hi in
    if lo = -1L && (q < -27 || q > 55) then Float.nan
    else
      let upperbit = Int64.to_int (Int64.shift_right_logical hi 63) in
      let shift = upperbit + 9 in
      let mantissa = Int64.to_int (Int64.shift_right_logical hi shift) in
      let power2 = (((152170 + 65536) * q) asr 16) + 63 + upperbit - lz + 1023 in
      if power2 <= 0 then Float.nan
      else
        (* An exact halfway case: only zeros were shifted out, so round
           to even instead of up. *)
        let mantissa =
          if (lo = 0L || lo = 1L) && q >= -4 && q <= 23 && mantissa land 3 = 1
             && Int64.shift_left (Int64.of_int mantissa) shift = hi
          then mantissa land lnot 1
          else mantissa
        in
        let mantissa = (mantissa + (mantissa land 1)) lsr 1 in
        let carry = mantissa >= 1 lsl 53 in
        let power2 = if carry then power2 + 1 else power2 in
        if power2 >= 0x7FF then Float.nan
        else
          let mantissa = if carry then 0 else mantissa land ((1 lsl 52) - 1) in
          let bits =
            Int64.logor (Int64.of_int mantissa) (Int64.shift_left (Int64.of_int power2) 52)
          in
          Int64.float_of_bits (if negative then Int64.logor bits Int64.min_int else bits)

(* The double nearest [w * 10^q] for [0 < w < 2^62], or [nan] where
   neither fast path settles it. *)
let decimal_to_float ~negative w q =
  if w <= 1 lsl 53 && q >= -22 && q <= 22 then
    (* Clinger: both operands are exact, so one rounding is correct. *)
    let v =
      if q >= 0 then float_of_int w *. Array.unsafe_get exact_pow10 q
      else float_of_int w /. Array.unsafe_get exact_pow10 (-q)
    in
    if negative then -.v else v
  else eisel_lemire ~negative w q

(* [s.[start .. stop - 1]] read as [-+]?d*[.d*][eE[-+]d+] with at least
   one mantissa digit and at most 18 significant ones; [nan] for any
   other token and for every value the fast paths cannot settle. *)
let fast_float s start stop =
  let i = ref start in
  let negative = stop > start && String.unsafe_get s start = '-' in
  if stop > start && (negative || String.unsafe_get s start = '+') then incr i;
  let int_start = !i in
  (* Leading zeros are not significant. Past 18 significant digits [w]
     may overflow; the count below sends such tokens to the fallback. *)
  while !i < stop && String.unsafe_get s !i = '0' do incr i done;
  let w = ref 0 and significant_start = !i in
  while !i < stop && is_digit (digit_at s !i) do
    w := (!w * 10) + digit_at s !i;
    incr i
  done;
  let digits = ref (!i - int_start) and significant = ref (!i - significant_start) in
  let exp10 = ref 0 in
  if !i < stop && String.unsafe_get s !i = '.' then begin
    incr i;
    let frac_start = !i in
    if !significant = 0 then while !i < stop && String.unsafe_get s !i = '0' do incr i done;
    let significant_start = !i in
    while !i < stop && is_digit (digit_at s !i) do
      w := (!w * 10) + digit_at s !i;
      incr i
    done;
    digits := !digits + (!i - frac_start);
    significant := !significant + (!i - significant_start);
    exp10 := frac_start - !i
  end;
  let ok = ref (!significant <= 18) in
  if !i < stop && (String.unsafe_get s !i = 'e' || String.unsafe_get s !i = 'E') then begin
    incr i;
    let exp_negative = !i < stop && String.unsafe_get s !i = '-' in
    if !i < stop && (exp_negative || String.unsafe_get s !i = '+') then incr i;
    let e = ref 0 and exp_start = !i in
    while !i < stop && is_digit (digit_at s !i) do
      if !e < 100_000 then e := (!e * 10) + digit_at s !i;
      incr i
    done;
    if !i = exp_start then ok := false;
    exp10 := if exp_negative then !exp10 - !e else !exp10 + !e
  end;
  if (not !ok) || !i <> stop || !digits = 0 then Float.nan
  else if !w = 0 then if negative then -0. else 0.
  else decimal_to_float ~negative !w !exp10

let float_sub s start len =
  let v = fast_float s start (start + len) in
  if v = v then v
  else
    match float_of_string_opt (String.sub s start len) with
    | Some v -> v
    | None -> raise Malformed

let rec decimal_int s stop i acc =
  if i = stop then acc
  else
    let d = digit_at s i in
    if is_digit d then decimal_int s stop (i + 1) ((acc * 10) + d) else -1

let int_sub s start len =
  let stop = start + len in
  let negative = len > 0 && String.unsafe_get s start = '-' in
  let first = if negative then start + 1 else start in
  (* 18 digits cannot overflow a 63-bit int. *)
  let v = if stop > first && stop - first <= 18 then decimal_int s stop first 0 else -1 in
  if v >= 0 then if negative then -v else v
  else
    match int_of_string_opt (String.sub s start len) with
    | Some v -> v
    | None -> raise Malformed

(* ------------------------------------------------------------------ *)
(* Decimal printing                                                    *)

(* The C-level printf conversion behind [Printf.sprintf "%.*g"], without
   the format interpreter: the fallback of the digit generator below. *)
external format_float : string -> float -> string = "caml_format_float"

let g_formats = Array.init 18 (fun p -> "%." ^ string_of_int p ^ "g")

(* 5^0 .. 5^27, the powers of five that fit an Int64: a native int
   overflows at 5^27 already. *)
let powers_of_five =
  let t = Array.make 28 1L in
  for k = 1 to 27 do
    t.(k) <- Int64.mul t.(k - 1) 5L
  done;
  t

(* 10^0 .. 10^18: every one fits a native int. *)
let powers_of_ten =
  let t = Array.make 19 1 in
  for k = 1 to 18 do
    t.(k) <- t.(k - 1) * 10
  done;
  t

(* Ties go to the even neighbour, as glibc's printf rounds the exact
   binary value. *)
let[@inline] round_half_even q ~half ~sticky = if half && (sticky || q land 1 = 1) then q + 1 else q

(* [n / d] rounded half to even, for [0 <= n] and [0 < d]. *)
let[@inline] div_round n d =
  let q = n / d and r = n mod d in
  let c = compare r (d - r) in
  if c > 0 || (c = 0 && q land 1 = 1) then q + 1 else q

(* [(hi, lo) >> r] rounded half to even, for [1 <= r <= 63], or -1 when
   the quotient passes 2^62; [sticky] says whether nonzero bits lie
   below [lo]. *)
let round_shifted hi lo r ~sticky =
  let q = Int64.logor (Int64.shift_left hi (64 - r)) (Int64.shift_right_logical lo r) in
  if Int64.shift_right_logical hi r <> 0L || Int64.shift_right_logical q 62 <> 0L then -1
  else
    round_half_even (Int64.to_int q)
      ~half:(Int64.logand (Int64.shift_right_logical lo (r - 1)) 1L <> 0L)
      ~sticky:(sticky || Int64.logand lo (Int64.pred (Int64.shift_left 1L (r - 1))) <> 0L)

(* [m * 2^e * 10^s] rounded half to even, for [0 < m < 2^53], or -1
   where the exact integer arithmetic cannot settle it: [s] above 27 (no
   Int64 power of five) or below -18, or a result or divisor past 2^62.
   For [s >= 0] the product [m * 5^s] is exact in 128 bits and is
   shifted by [e + s]; the bits shifted out are the exact remainder.
   For [s < 0] the value is an exact quotient of native ints. *)
let scaled m e s =
  if s >= 0 then
    if s > 27 then -1
    else
      let p = Array.unsafe_get powers_of_five s and m64 = Int64.of_int m in
      let lo = Int64.mul m64 p and hi = umul_hi m64 p in
      let r = -(e + s) in
      if r <= 0 then
        if hi <> 0L || -r >= 62 || Int64.shift_right_logical lo (62 + r) <> 0L then -1
        else Int64.to_int lo lsl -r
      else if r < 64 then round_shifted hi lo r ~sticky:false
      else if r = 64 then
        if Int64.shift_right_logical hi 62 <> 0L then -1
        else
          round_half_even (Int64.to_int hi) ~half:(Int64.compare lo 0L < 0)
            ~sticky:(Int64.logand lo Int64.max_int <> 0L)
      else if r < 128 then round_shifted 0L hi (r - 64) ~sticky:(lo <> 0L)
      else -1
  else
    let t = -s in
    if t > 18 then -1
    else
      let d = Array.unsafe_get powers_of_ten t in
      if e >= 0 then if e > 9 then -1 else div_round (m lsl e) d
      else if -e >= 62 || d >= 1 lsl (62 + e) then -1
      else div_round m (d lsl -e)

(* The [precision] significant digits of [v = m * 2^e], a positive
   normal double in [[2^e2, 2^(e2 + 1))], as [(d, x)]: [d] has exactly
   [precision] digits and [v] rounds to [d * 10^(x - precision + 1)],
   so [x] is the exponent of the [%e] form. [d] is -1 where {!scaled}
   cannot settle. The decimal exponent starts at
   [floor (e2 * log10 2)] (exact for every double exponent) and is
   raised while the rounded digits overflow; a round-up carry to
   [10^precision] is the next decade's [10^(precision - 1)]. *)
let decimal ~precision m e e2 =
  let limit = Array.unsafe_get powers_of_ten precision in
  let rec go x =
    let d = scaled m e (precision - 1 - x) in
    if d < 0 then (-1, 0)
    else if d < limit then if d * 10 < limit then (-1, 0) else (d, x)
    else if d = limit then (limit / 10, x + 1)
    else go (x + 1)
  in
  go ((e2 * 78913) asr 18)

(* "00" .. "99", so digits are written two at a time. *)
let digit_pairs =
  String.init 200 (fun i -> Char.unsafe_chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* Writes the [n] low decimal digits of [d] at [pos .. pos + n - 1]. *)
let write_digits staged pos d n =
  let d = ref d and i = ref (pos + n - 1) in
  while !i > pos do
    let r = 2 * (!d mod 100) in
    Bytes.unsafe_set staged !i (String.unsafe_get digit_pairs (r + 1));
    Bytes.unsafe_set staged (!i - 1) (String.unsafe_get digit_pairs r);
    d := !d / 100;
    i := !i - 2
  done;
  if !i = pos then Bytes.unsafe_set staged pos (Char.unsafe_chr (48 + (!d mod 10)))

(* Appends [d * 10^(x - precision + 1)] in [%.{precision}g] layout: the
   [%e] form when [x < -4] or [x >= precision], else the [%f] form, then
   trailing fraction zeros and a bare point dropped. *)
let add_decimal buf ~negative ~precision d x =
  let d = ref d and n = ref precision in
  while !n > 1 && !d mod 10 = 0 do
    d := !d / 10;
    decr n
  done;
  let d = !d and n = !n in
  (* At most "-0.0000" ^ 17 digits, or "-d." ^ 16 digits ^ "e-308". *)
  let staged = Bytes.create 32 in
  let pos = if negative then (Bytes.unsafe_set staged 0 '-'; 1) else 0 in
  let stop =
    if x < -4 || x >= precision then begin
      (* d.ddd, then e and a signed exponent of at least two digits. *)
      write_digits staged (pos + 1) d n;
      Bytes.unsafe_set staged pos (Bytes.unsafe_get staged (pos + 1));
      let pos = if n > 1 then (Bytes.unsafe_set staged (pos + 1) '.'; pos + n + 1) else pos + 1 in
      Bytes.unsafe_set staged pos 'e';
      Bytes.unsafe_set staged (pos + 1) (if x < 0 then '-' else '+');
      let a = abs x in
      let width = if a >= 100 then 3 else 2 in
      write_digits staged (pos + 2) a width;
      pos + 2 + width
    end
    else if x >= 0 then
      if n <= x + 1 then begin
        (* An integer: the digits, then zeros up to the point. *)
        write_digits staged pos d n;
        Bytes.fill staged (pos + n) (x + 1 - n) '0';
        pos + x + 1
      end
      else begin
        write_digits staged pos d n;
        Bytes.blit staged (pos + x + 1) staged (pos + x + 2) (n - x - 1);
        Bytes.unsafe_set staged (pos + x + 1) '.';
        pos + n + 1
      end
    else begin
      (* 0., the zeros after the point, then the digits. *)
      Bytes.unsafe_set staged pos '0';
      Bytes.unsafe_set staged (pos + 1) '.';
      Bytes.fill staged (pos + 2) (-x - 1) '0';
      write_digits staged (pos + 1 - x) d n;
      pos + 1 - x + n
    end
  in
  Buffer.add_subbytes buf staged 0 stop

(* [add_g] and [try_add_g] in one: with [~exact:true], the form is only
   appended when it reads back to [v], and the result says whether it
   was. *)
let add_g_checked buf ~exact ~precision v =
  let bits = Int64.bits_of_float v in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
  let negative = Int64.compare bits 0L < 0 in
  let fallback () =
    let s = format_float (Array.unsafe_get g_formats precision) v in
    if exact && float_sub s 0 (String.length s) <> v then false
    else (Buffer.add_string buf s; true)
  in
  if precision < 1 || precision > 17 then invalid_arg "Scan.add_g: precision outside 1-17"
  else if biased = 0 || biased = 0x7FF then
    if v = 0. then (Buffer.add_string buf (if negative then "-0" else "0"); true)
    else fallback ()
  else
    let m = (Int64.to_int bits land ((1 lsl 52) - 1)) lor (1 lsl 52) in
    let d, x = decimal ~precision m (biased - 1075) (biased - 1023) in
    if d < 0 then fallback ()
    else if not exact then (add_decimal buf ~negative ~precision d x; true)
    else
      let back = decimal_to_float ~negative:false d (x - precision + 1) in
      if back <> back then fallback ()
      else if back = Float.abs v then (add_decimal buf ~negative ~precision d x; true)
      else false

let add_g buf ~precision v = ignore (add_g_checked buf ~exact:false ~precision v)
let try_add_g buf ~precision v = add_g_checked buf ~exact:true ~precision v

let add_float buf v =
  if not (try_add_g buf ~precision:12 v) then add_g buf ~precision:17 v

let float_to_string v =
  let buf = Buffer.create 24 in
  add_float buf v;
  Buffer.contents buf

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

let hex_digits = "0123456789abcdef"

(* The steps of the runtime's [caml_hexstring_of_float] at the default
   precision: sign, [0x], the leading digit (0 only for zero and
   subnormals, whose exponent is pinned at -1022), the fraction's hex
   digits without trailing zeros, and a signed decimal exponent. A
   finite float is staged in one small [Bytes] and appended by a single
   blit: [Buffer]'s per-call overhead would cost more than the digits. *)
let add_hex_float buf v =
  let bits = Int64.bits_of_float v in
  let exponent = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
  let fraction = Int64.to_int bits land ((1 lsl 52) - 1) in
  let negative = Float.sign_bit v in
  if exponent = 0x7FF then begin
    if negative then Buffer.add_char buf '-';
    Buffer.add_string buf (if fraction = 0 then "infinity" else "nan")
  end
  else begin
    (* At most "-0x1." ^ 13 digits ^ "p+1023": 24 bytes. *)
    let staged = Bytes.create 24 and pos = ref 0 in
    if negative then begin
      Bytes.unsafe_set staged 0 '-';
      pos := 1
    end;
    Bytes.unsafe_set staged !pos '0';
    Bytes.unsafe_set staged (!pos + 1) 'x';
    Bytes.unsafe_set staged (!pos + 2) (if exponent = 0 then '0' else '1');
    pos := !pos + 3;
    if fraction <> 0 then begin
      Bytes.unsafe_set staged !pos '.';
      let rest = ref fraction and shift = ref 48 in
      while !rest <> 0 do
        incr pos;
        Bytes.unsafe_set staged !pos
          (String.unsafe_get hex_digits ((!rest lsr !shift) land 0xF));
        rest := !rest land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done;
      incr pos
    end;
    let e = if exponent <> 0 then exponent - 1023 else if fraction = 0 then 0 else -1022 in
    Bytes.unsafe_set staged !pos 'p';
    Bytes.unsafe_set staged (!pos + 1) (if e < 0 then '-' else '+');
    pos := !pos + 2;
    let e = abs e in
    let width = if e >= 1000 then 4 else if e >= 100 then 3 else if e >= 10 then 2 else 1 in
    let rest = ref e in
    for k = width - 1 downto 0 do
      Bytes.unsafe_set staged (!pos + k) (Char.unsafe_chr (48 + (!rest mod 10)));
      rest := !rest / 10
    done;
    Buffer.add_subbytes buf staged 0 (!pos + width)
  end

(* ------------------------------------------------------------------ *)
(* Positions                                                           *)

let position text offset =
  let line = ref 1 and line_start = ref 0 in
  for i = 0 to min offset (String.length text) - 1 do
    if String.unsafe_get text i = '\n' then begin
      incr line;
      line_start := i + 1
    end
  done;
  (!line, offset - !line_start + 1)

let located text offset msg =
  let line, col = position text offset in
  Printf.sprintf "line %d, col %d: %s" line col msg

let rec find text c start stop =
  if start >= stop then -1
  else if String.unsafe_get text start = c then start
  else find text c (start + 1) stop

(* ------------------------------------------------------------------ *)
(* Line cursor                                                         *)

type t = {
  text : string;
  mutable next : int;
  mutable line : int;
  mutable line_start : int;
  mutable count : int;
  mutable spans : int array;
}

let of_string text =
  { text; next = 0; line = 0; line_start = 0; count = 0; spans = Array.make 32 0 }

let push t start len =
  let k = 2 * t.count in
  if k + 1 >= Array.length t.spans then begin
    let spans = Array.make (2 * Array.length t.spans) 0 in
    Array.blit t.spans 0 spans 0 k;
    t.spans <- spans
  end;
  Array.unsafe_set t.spans k start;
  Array.unsafe_set t.spans (k + 1) len;
  t.count <- t.count + 1

(* Byte classes of the line grammar: 0 token, 1 blank, 2 newline,
   3 comment start. *)
let classes =
  String.init 256 (fun c ->
      match Char.chr c with
      | ' ' | '\t' -> '\001'
      | '\n' -> '\002'
      | '#' -> '\003'
      | _ -> '\000')

let[@inline] class_at text i =
  Char.code (String.unsafe_get classes (Char.code (String.unsafe_get text i)))

let next_line t =
  let text = t.text in
  let n = String.length text in
  if t.next > n then false
  else begin
    t.line <- t.line + 1;
    t.line_start <- t.next;
    t.count <- 0;
    let i = ref t.next and line_end = ref (-1) in
    while !line_end < 0 do
      if !i >= n then line_end := n
      else
        match class_at text !i with
        | 0 ->
          let start = !i in
          incr i;
          while !i < n && class_at text !i = 0 do incr i done;
          push t start (!i - start)
        | 1 -> incr i
        | 2 -> line_end := !i
        | _ -> line_end := (match String.index_from_opt text !i '\n' with Some j -> j | None -> n)
    done;
    t.next <- !line_end + 1;
    true
  end

let line t = t.line
let count t = t.count

let[@inline] span_start t i =
  if i < 0 || i >= t.count then invalid_arg "Scan: token index out of range";
  Array.unsafe_get t.spans (2 * i)

let[@inline] span_len t i = Array.unsafe_get t.spans ((2 * i) + 1)
let col t i = span_start t i - t.line_start + 1

let rec same_bytes text start keyword k =
  k = String.length keyword
  || String.unsafe_get text (start + k) = String.unsafe_get keyword k
     && same_bytes text start keyword (k + 1)

let is t i keyword =
  let start = span_start t i in
  span_len t i = String.length keyword && same_bytes t.text start keyword 0

let token t i = String.sub t.text (span_start t i) (span_len t i)
let int t i = int_sub t.text (span_start t i) (span_len t i)
let float t i = float_sub t.text (span_start t i) (span_len t i)
