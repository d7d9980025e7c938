(* The shared text scanner: its float and int readers against the
   standard library, the powers-of-five table against exact integer
   arithmetic, and the scanner-based CTG parser against the split-based
   one it replaced. *)

module Scan = Noc_util.Scan
module Prng = Noc_util.Prng
module Ctg = Noc_ctg.Ctg
module Ctg_io = Noc_ctg.Ctg_io

(* ------------------------------------------------------------------ *)
(* Float reader: bit-identical to float_of_string.                     *)

(* Checks [s] and returns whether the readers disagreed. *)
let float_disagrees s =
  let expected = float_of_string_opt s in
  let got =
    match Scan.float_sub s 0 (String.length s) with
    | v -> Some v
    | exception Scan.Malformed -> None
  in
  match (expected, got) with
  | None, None -> false
  | Some a, Some b -> Int64.bits_of_float a <> Int64.bits_of_float b
  | Some _, None | None, Some _ -> true

type tally = { mutable inputs : int; mutable failures : string list }

let check_float tally s =
  tally.inputs <- tally.inputs + 1;
  if float_disagrees s && List.length tally.failures < 10 then
    tally.failures <- s :: tally.failures

let random_double rng = Int64.float_of_bits (Prng.int64 rng)

let subnormal rng =
  Int64.float_of_bits (Int64.logand (Prng.int64 rng) 0x800F_FFFF_FFFF_FFFFL)

(* printf's own conversion, without the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let precisions = Array.init 17 (fun p -> Printf.sprintf "%%.%dg" (p + 1))

let forms rng x =
  [
    format_float "%.17g" x;
    format_float "%.12g" x;
    format_float precisions.(Prng.int rng ~bound:17) x;
  ]

(* Leading zeros after the sign and trailing zeros after the mantissa
   change the digits the reader sees but not the value. *)
let pad_zeros rng s =
  let lead = String.make (1 + Prng.int rng ~bound:4) '0' in
  let trail = String.make (Prng.int rng ~bound:4) '0' in
  let sign, body =
    if String.length s > 0 && (s.[0] = '-' || s.[0] = '+') then
      (String.make 1 s.[0], String.sub s 1 (String.length s - 1))
    else ("", s)
  in
  let mantissa, exponent =
    match String.index_opt body 'e' with
    | Some i -> (String.sub body 0 i, String.sub body i (String.length body - i))
    | None -> (body, "")
  in
  let mantissa = if String.contains mantissa '.' then mantissa ^ trail else mantissa in
  sign ^ lead ^ mantissa ^ exponent

let long_mantissa rng =
  let digits = 19 + Prng.int rng ~bound:7 in
  let b = Buffer.create 40 in
  if Prng.bool rng then Buffer.add_char b '-';
  let point = Prng.int rng ~bound:(digits + 1) in
  for i = 0 to digits - 1 do
    if i = point then Buffer.add_char b '.';
    Buffer.add_char b (Char.chr (48 + if i = 0 then 1 + Prng.int rng ~bound:9 else Prng.int rng ~bound:10))
  done;
  Printf.bprintf b "e%d" (Prng.int_in rng ~min:(-360) ~max:330);
  Buffer.contents b

(* Decimals exactly halfway between two adjacent doubles, with at most
   18 digits, so the fast path's round-to-even rule decides them: odd
   w with w * 5^q in [2^53, 2^54) written as "we<q>", and odd v in the
   same range written as v * 5^k / 10^k. Their neighbours one unit in
   the last digit away are checked too. *)
let halfway_cases rng =
  let cases = ref [] in
  let add w exponent =
    List.iter
      (fun w -> cases := Printf.sprintf "%de%d" w exponent :: !cases)
      [ w - 1; w; w + 1 ]
  in
  let pow5 = ref 1 in
  for q = 0 to 23 do
    let lo = ((1 lsl 53) + !pow5 - 1) / !pow5 and hi = (1 lsl 54) / !pow5 in
    if hi >= lo then
      for _ = 1 to 400 do
        let w = lo + Prng.int rng ~bound:(hi - lo + 1) in
        let w = if w land 1 = 0 then if w + 1 <= hi then w + 1 else w - 1 else w in
        if w >= lo && w * !pow5 >= 1 lsl 53 then add w q
      done;
    pow5 := !pow5 * 5
  done;
  List.iter
    (fun k ->
      let scale = if k = 1 then 5 else 25 in
      for _ = 1 to 2000 do
        let v = (1 lsl 53) + (2 * Prng.int rng ~bound:(1 lsl 52)) + 1 in
        add (v * scale) (-k)
      done)
    [ 1; 2 ];
  !cases

let edge_cases =
  [
    "0"; "-0"; "+0"; "-0."; "0."; ".0"; "-.0"; "0e0"; "-0e-999"; "0e999"; "00000";
    "000.000e+00"; "1"; "-1"; "+1"; "1."; ".5"; "-.5"; "5e-1"; "1e22"; "1e23";
    "9007199254740992"; "9007199254740993"; "9007199254740994"; "9007199254740995";
    "123456789012345678"; "1234567890123456789"; "0.000000000000000000000000001";
    "4.9406564584124654e-324"; "2.2250738585072014e-308"; "2.2250738585072011e-308";
    "1.7976931348623157e308"; "1.7976931348623158e308"; "1.7976931348623159e308";
    "1e308"; "1e309"; "1e-342"; "1e-343"; "1e-400"; "1e400"; "-1e400"; "inf";
    "-inf"; "infinity"; "nan"; "NaN"; "1_000"; "1_000.5"; "0x10"; "0x1.8p1";
    "-0x1p-1074"; ""; "-"; "+"; "."; "e5"; "1e"; "1e+"; "1e-"; "1.5f"; "1..5";
    "1e5.5"; "--1"; "+-1"; " 1"; "1 "; "\r1"; "1\r"; "1,5"; "١";
  ]

let suite_texts =
  lazy
    (List.concat_map
       (fun kind -> List.map Ctg_io.to_string (Noc_tgff.Category.suite kind))
       [ Noc_tgff.Category.Category_i; Noc_tgff.Category.Category_ii ])

(* Every token of a CTG text that reads as a number. *)
let numeric_tokens text =
  String.split_on_char '\n' text
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun w -> w <> "" && float_of_string_opt w <> None)

let test_float_reader_differential () =
  let rng = Prng.create ~seed:20211 in
  let tally = { inputs = 0; failures = [] } in
  let check = check_float tally in
  List.iter check edge_cases;
  for _ = 1 to 110_000 do
    List.iter check (forms rng (random_double rng))
  done;
  for _ = 1 to 10_000 do
    List.iter check (forms rng (subnormal rng))
  done;
  for _ = 1 to 40_000 do
    List.iter check (forms rng (Prng.float rng ~bound:1e6))
  done;
  for _ = 1 to 30_000 do
    check (pad_zeros rng (format_float "%.17g" (random_double rng)))
  done;
  for _ = 1 to 100_000 do
    check (long_mantissa rng)
  done;
  List.iter check (halfway_cases rng);
  List.iter (fun text -> List.iter check (numeric_tokens text)) (Lazy.force suite_texts);
  Alcotest.(check (list string)) "disagreements with float_of_string" [] tally.failures;
  Alcotest.(check bool)
    (Printf.sprintf "at least 10^6 inputs (%d)" tally.inputs)
    true (tally.inputs >= 1_000_000)

let test_int_reader () =
  let check s =
    let got = match Scan.int_sub s 0 (String.length s) with v -> Some v | exception Scan.Malformed -> None in
    Alcotest.(check (option int)) s (int_of_string_opt s) got
  in
  List.iter check
    [
      "0"; "-0"; "7"; "-7"; "007"; "+5"; "123456789012345678"; "-123456789012345678";
      "1234567890123456789"; "4611686018427387903"; "4611686018427387904";
      "-4611686018427387904"; "-4611686018427387905"; "0x10"; "0b101"; "0o17";
      "1_000"; ""; "-"; "+"; "1.0"; "1e3"; " 1"; "1 "; "\r1"; "--1";
    ];
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    check (string_of_int (Int64.to_int (Prng.int64 rng) asr Prng.int rng ~bound:62))
  done

let test_substring_offsets () =
  (* Readers see only their slice. *)
  let s = "x12.5e1y-7z" in
  Alcotest.(check (float 0.)) "float slice" 125. (Scan.float_sub s 1 6);
  Alcotest.(check int) "int slice" (-7) (Scan.int_sub s 8 2);
  Alcotest.(check string) "printer short form" "0.1" (Scan.float_to_string 0.1);
  Alcotest.(check string) "printer long form" "0.30000000000000004"
    (Scan.float_to_string (0.1 +. 0.2))

(* ------------------------------------------------------------------ *)
(* The powers-of-five table, re-derived with exact integers.           *)

(* Naturals as little-endian arrays of 30-bit limbs. *)
module Nat = struct
  let limb = 30
  let mask = (1 lsl limb) - 1

  let trim a =
    let n = ref (Array.length a) in
    while !n > 0 && a.(!n - 1) = 0 do decr n done;
    Array.sub a 0 !n

  let of_int n = trim [| n land mask; n lsr limb |]

  let mul_small a k =
    let carry = ref 0 in
    let r = Array.make (Array.length a + 1) 0 in
    Array.iteri
      (fun i x ->
        let v = (x * k) + !carry in
        r.(i) <- v land mask;
        carry := v lsr limb)
      a;
    r.(Array.length a) <- !carry;
    trim r

  let bit_length a =
    let n = Array.length a in
    if n = 0 then 0
    else
      let top = a.(n - 1) in
      let rec bits x = if x = 0 then 0 else 1 + bits (x lsr 1) in
      ((n - 1) * limb) + bits top

  let shift_left a s =
    let words = s / limb and bits = s mod limb in
    let r = Array.make (Array.length a + words + 1) 0 in
    Array.iteri
      (fun i x ->
        let v = x lsl bits in
        r.(i + words) <- r.(i + words) lor (v land mask);
        r.(i + words + 1) <- v lsr limb)
      a;
    trim r

  let bit a i =
    let w = i / limb in
    w < Array.length a && (a.(w) lsr (i mod limb)) land 1 = 1

  let shift_right a s =
    let n = max 0 (bit_length a - s) in
    let r = Array.make ((n / limb) + 1) 0 in
    for i = 0 to n - 1 do
      if bit a (i + s) then r.(i / limb) <- r.(i / limb) lor (1 lsl (i mod limb))
    done;
    trim r

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then compare la lb
    else
      let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
      go (la - 1)

  let sub a b =
    let r = Array.copy a and borrow = ref 0 in
    Array.iteri
      (fun i x ->
        let v = x - (if i < Array.length b then b.(i) else 0) - !borrow in
        if v < 0 then (r.(i) <- v + (1 lsl limb); borrow := 1)
        else (r.(i) <- v; borrow := 0))
      a;
    trim r

  let add_one a =
    let r = Array.append a [| 0 |] in
    let i = ref 0 in
    while r.(!i) = mask do
      r.(!i) <- 0;
      incr i
    done;
    r.(!i) <- r.(!i) + 1;
    trim r

  (* floor (2^b / p) by binary long division; the remainder only
     reaches p once 2^z >= p, so the first [z] quotient bits are 0. *)
  let div_pow2 b p z =
    let r = ref (shift_left (of_int 1) z) and q = ref (of_int 1) in
    r := sub !r p;
    for _ = z + 1 to b do
      r := shift_left !r 1;
      q := shift_left !q 1;
      if compare !r p >= 0 then begin
        r := sub !r p;
        q := add_one !q
      end
    done;
    !q

  (* The value of a natural below 2^128 as (high, low) int64 words. *)
  let words a =
    let word lo_bit =
      let w = ref 0L in
      for i = 63 downto 0 do
        w := Int64.logor (Int64.shift_left !w 1) (if bit a (lo_bit + i) then 1L else 0L)
      done;
      !w
    in
    (word 64, word 0)
end

let derive_entry q =
  let open Nat in
  if q >= 0 then
    let p = ref (of_int 1) in
    for _ = 1 to q do p := mul_small !p 5 done;
    let s = bit_length !p - 128 in
    words (if s < 0 then shift_left !p (-s) else shift_right !p s)
  else
    let p = ref (of_int 1) in
    for _ = 1 to -q do p := mul_small !p 5 done;
    let z = bit_length !p in
    (* 5^k is odd, so 2^z >= 5^k exactly when z is its bit length. *)
    let b = if q >= -27 then z + 127 else (2 * z) + 128 in
    let c = add_one (div_pow2 b !p z) in
    let s = max 0 (bit_length c - 128) in
    words (shift_right c s)

let test_pow5_table () =
  let table = Noc_util.Pow5.table in
  Alcotest.(check int) "one pair per power" (2 * (Noc_util.Pow5.max_exponent - Noc_util.Pow5.min_exponent + 1))
    (Array.length table);
  for q = Noc_util.Pow5.min_exponent to Noc_util.Pow5.max_exponent do
    let hi, lo = derive_entry q in
    let i = 2 * (q - Noc_util.Pow5.min_exponent) in
    if hi <> table.(i) || lo <> table.(i + 1) then
      Alcotest.failf "5^%d: committed %016Lx %016Lx, derived %016Lx %016Lx" q table.(i)
        table.(i + 1) hi lo
  done

(* ------------------------------------------------------------------ *)
(* Line cursor.                                                        *)

let test_cursor () =
  let sc = Scan.of_string "ctg 1\n\tpes  4 # four\n#only comment\nx#y z\n" in
  let lines = ref [] in
  while Scan.next_line sc do
    lines :=
      (Scan.line sc, List.init (Scan.count sc) (fun i -> (Scan.token sc i, Scan.col sc i)))
      :: !lines
  done;
  Alcotest.(check (list (pair int (list (pair string int)))))
    "tokens with their columns"
    [
      (1, [ ("ctg", 1); ("1", 5) ]);
      (2, [ ("pes", 2); ("4", 7) ]);
      (3, []);
      (4, [ ("x", 1) ]);
      (5, []);
    ]
    (List.rev !lines);
  Alcotest.(check (pair int int)) "position" (2, 2) (Scan.position "ab\ncd" 4)

(* ------------------------------------------------------------------ *)
(* CTG parser against the split-based oracle.                          *)

let special_tokens =
  [| "1_000"; "0x10"; "+5"; "inf"; "nan"; "1e400"; "-0"; "1e-400"; ".5"; "5."; "-"; "e5"; "1e";
     "00"; "-1"; "0"; "99999999999999999999"; "1.5\r"; "name"; "task"; "deadline"; "release" |]

(* Offsets of the tokens of [s] (runs of bytes other than blanks and
   newlines). *)
let token_spans s =
  let spans = ref [] and i = ref 0 and n = String.length s in
  while !i < n do
    if s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t' then incr i
    else begin
      let start = !i in
      while !i < n && not (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t') do incr i done;
      spans := (start, !i - start) :: !spans
    end
  done;
  Array.of_list (List.rev !spans)

let splice s pos len insert =
  String.sub s 0 pos ^ insert ^ String.sub s (pos + len) (String.length s - pos - len)

let mutate rng s =
  let n = String.length s in
  let spans = token_spans s in
  let pick_span () = spans.(Prng.int rng ~bound:(Array.length spans)) in
  let pos () = Prng.int rng ~bound:(n + 1) in
  if n = 0 || Array.length spans = 0 then s ^ "x"
  else
    match Prng.int rng ~bound:11 with
    | 0 ->
      let start, len = pick_span () in
      splice s start len ""
    | 1 ->
      let start, len = pick_span () in
      splice s start 0 (String.sub s start len ^ " ")
    | 2 ->
      let k = Prng.int rng ~bound:(Array.length spans) in
      if k + 1 >= Array.length spans then s
      else
        let (a, la), (b, lb) = (spans.(k), spans.(k + 1)) in
        String.sub s 0 a ^ String.sub s b lb
        ^ String.sub s (a + la) (b - a - la)
        ^ String.sub s a la
        ^ String.sub s (b + lb) (n - b - lb)
    | 3 -> splice s (pos ()) 0 "\t"
    | 4 -> splice s (pos ()) 0 (if Prng.bool rng then "# note" else " #")
    | 5 -> String.concat "\r\n" (String.split_on_char '\n' s)
    | 6 ->
      let p = Prng.int rng ~bound:n in
      splice s p 1 (String.make 1 (Char.chr (Prng.int rng ~bound:256)))
    | 7 -> String.sub s 0 (Prng.int rng ~bound:n)
    | 8 | 9 ->
      let start, len = pick_span () in
      splice s start len (Prng.choose rng special_tokens)
    | _ ->
      let p = Prng.int rng ~bound:n in
      splice s p 1 (String.make 1 (Prng.choose rng [| '0'; '9'; '.'; 'e'; '-'; ' '; '\n'; '#' |]))

let random_ctg_text rng =
  let params = { Noc_tgff.Params.default with n_tasks = 2 + Prng.int rng ~bound:8 } in
  let g =
    Noc_tgff.Generate.generate ~params ~platform:Noc_tgff.Category.platform
      ~seed:(Prng.int rng ~bound:1_000_000)
  in
  Ctg_io.to_string g

(* The scanner's message with its ", col C" removed. *)
let without_column msg =
  if not (String.starts_with ~prefix:"line " msg) then msg
  else
    match String.index_opt msg ',' with
    | Some i when String.length msg > i + 6 && String.sub msg i 6 = ", col " -> (
      match String.index_from_opt msg i ':' with
      | Some j -> String.sub msg 0 i ^ String.sub msg j (String.length msg - j)
      | None -> msg)
    | Some _ | None -> msg

let parsers_agree text =
  match (Ctg_io.of_string text, Noc_oracle.Ctg_io_reference.of_string text) with
  | Ok a, Ok b -> Ctg_io.to_string a = Ctg_io.to_string b && Ctg.digest a = Ctg.digest b
  | Error a, Error b -> without_column a = b
  | Ok _, Error _ | Error _, Ok _ -> false

let qcheck_ctg_oracle =
  QCheck.Test.make ~name:"ctg parser agrees with the split-based oracle" ~count:700
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 4))
    (fun (seed, mutations) ->
      let rng = Prng.create ~seed in
      let text = ref (random_ctg_text rng) in
      for _ = 1 to mutations do
        text := mutate rng !text
      done;
      if parsers_agree !text then true
      else
        QCheck.Test.fail_reportf "texts disagree on %S:\nscan:   %s\noracle: %s" !text
          (match Ctg_io.of_string !text with Ok _ -> "Ok" | Error e -> e)
          (match Noc_oracle.Ctg_io_reference.of_string !text with Ok _ -> "Ok" | Error e -> e))

let test_ctg_oracle_cases () =
  List.iter
    (fun text ->
      Alcotest.(check bool) (Printf.sprintf "%S" text) true (parsers_agree text))
    [
       "";
       "ctg 1";
       "ctg 1\r\npes 1\r\n";
       "ctg 1\npes 1\ntask 0 name a release x deadline y\n";
       "ctg 1\npes 1\ntask 0 name a release 1 deadline y\n";
       "ctg 1\npes 1\ntask 0 name a deadline 5 release 1\n";
       "ctg 1\npes 1\ntask x name a\n";
       "ctg 1\npes 1\ntask x nam a\n";
       "ctg 1\npes 0x2\ntask 0 name a\n times 1_0 inf\n energies +5 1e400\n";
       "ctg 1\npes 1\ntask 0 name a#b\n times 1\n energies 1\nedge 0 from 0 to 0 volume 1\n";
       "ctg 1\n\tpes\t1\ntask 0 name a\n times nan\n energies 1\n";
       "ctg 1 # v\npes 2 3\n";
     ];
  (* The paper's suites, compared field by field: printing twenty
     ~500-task graphs twice would cost more than the parses. *)
  List.iter
    (fun text ->
      match (Ctg_io.of_string text, Noc_oracle.Ctg_io_reference.of_string text) with
      | Ok a, Ok b ->
        let bits = Array.map Int64.bits_of_float in
        let task_bits (t : Noc_ctg.Task.t) =
          (t.id, t.name, bits t.exec_times, bits t.energies,
           Option.map Int64.bits_of_float t.release, Option.map Int64.bits_of_float t.deadline)
        in
        let edge_bits (e : Noc_ctg.Edge.t) = (e.id, e.src, e.dst, Int64.bits_of_float e.volume) in
        Alcotest.(check bool) "suite graph parsed identically" true
          (Ctg.n_pes a = Ctg.n_pes b
          && Array.map task_bits (Ctg.tasks a) = Array.map task_bits (Ctg.tasks b)
          && Array.map edge_bits (Ctg.edges a) = Array.map edge_bits (Ctg.edges b))
      | _ -> Alcotest.fail "a suite text failed to parse")
    (Lazy.force suite_texts)

(* ------------------------------------------------------------------ *)
(* Fuzzing: no text parser raises, whatever the bytes.                 *)

let vocabulary =
  [| "ctg"; "1"; "pes"; "4"; "task"; "name"; "release"; "deadline"; "times"; "energies";
     "edge"; "from"; "to"; "volume"; "schedule"; "3"; "place"; "pe"; "start"; "finish";
     "trans"; "via"; "0,1,5"; "dvfs"; "level"; "freq"; "energy"; "0x1p-1"; "-7"; "2.5";
     "1e400"; "nan"; "#"; " "; "\t"; "\n"; "\r\n"; ","; ":"; "@"; "-"; "x"; "link:1-2";
     "pe:3@1:"; "{"; "}"; "["; "]"; "\""; "\\u00"; "op"; "null"; "true" |]

(* Arbitrary bytes half the time, keyword soup the other half, so the
   parsers get past their first line too. *)
let fuzz_text =
  let soup =
    QCheck.Gen.(
      list_size (int_bound 40) (oneofa vocabulary)
      >|= fun words -> String.concat (if List.length words mod 3 = 0 then "" else " ") words)
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(oneof [ string_size ~gen:char (int_bound 200); soup ])

let never_raises name parse =
  QCheck.Test.make ~name:(name ^ " never raises") ~count:300 fuzz_text (fun text ->
      match parse text with
      | _ -> true
      | exception exn ->
        QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string exn))

let fuzz_platform = Noc_tgff.Category.platform

let fuzz_ctg =
  Noc_tgff.Generate.generate
    ~params:{ Noc_tgff.Params.default with n_tasks = 6 }
    ~platform:fuzz_platform ~seed:3

let fuzz_properties =
  [
    never_raises "Ctg_io.of_string" Ctg_io.of_string;
    never_raises "Schedule_io.of_string_full"
      (Noc_sched.Schedule_io.of_string_full fuzz_platform fuzz_ctg);
    never_raises "Fault.of_string" Noc_fault.Fault.of_string;
    never_raises "Vf_table.of_string" Noc_dvfs.Vf_table.of_string;
    never_raises "Protocol.parse_mesh" Noc_serve.Protocol.parse_mesh;
    never_raises "Json.parse" Noc_obs.Json.parse;
    never_raises "Protocol.parse_request" Noc_serve.Protocol.parse_request;
    (* Mutated valid texts reach the deep error paths. *)
    QCheck.Test.make ~name:"mutated schedules and requests never raise" ~count:300
      QCheck.(int_range 0 1_000_000)
      (fun seed ->
        let rng = Prng.create ~seed in
        let schedule =
          Noc_sched.Schedule_io.to_string
            (Noc_edf.Edf.schedule fuzz_platform fuzz_ctg)
        in
        let request =
          Noc_serve.Protocol.request_to_line
            (Noc_serve.Protocol.Schedule
               { ctg_text = Ctg_io.to_string fuzz_ctg; mesh = (4, 4);
                 algo = Noc_experiments.Runner.Eas; decisions = false; dvfs = None })
        in
        let schedule = mutate rng (mutate rng schedule) in
        let request = mutate rng (mutate rng request) in
        ignore (Noc_sched.Schedule_io.of_string_full fuzz_platform fuzz_ctg schedule);
        ignore (Noc_serve.Protocol.parse_request request);
        true);
  ]

let suite =
  [
    Alcotest.test_case "float reader matches float_of_string bit for bit" `Quick
      test_float_reader_differential;
    Alcotest.test_case "int reader matches int_of_string" `Quick test_int_reader;
    Alcotest.test_case "readers see only their slice" `Quick test_substring_offsets;
    Alcotest.test_case "powers-of-five table re-derived exactly" `Quick test_pow5_table;
    Alcotest.test_case "line cursor tokens and columns" `Quick test_cursor;
    Alcotest.test_case "ctg parser matches the oracle on fixed texts" `Quick
      test_ctg_oracle_cases;
    QCheck_alcotest.to_alcotest qcheck_ctg_oracle;
  ]
  @ List.map QCheck_alcotest.to_alcotest fuzz_properties
