module Scan = Noc_util.Scan

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Number _ | String _ | List _ -> None

let int n = Number (float_of_int n)
let fixed digits f = Number (float_of_string (Printf.sprintf "%.*f" digits f))

(* [s] as a quoted literal appended to [buf]. Runs of plain bytes are
   copied whole, as [parse] reads them; only quotes, backslashes and
   control bytes are written one by one. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      start := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
        Buffer.add_char buf "0123456789abcdef".[Char.code c land 0xf]
    end
  done;
  Buffer.add_substring buf s !start (n - !start);
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

(* JSON has no literal for infinities and NaN. *)
let add_non_finite buf f =
  Buffer.add_string buf
    (if Float.is_nan f then "\"nan\"" else if f > 0. then "\"inf\"" else "\"-inf\"")

let add_number buf f =
  if Float.is_finite f then Scan.add_g buf ~precision:17 f else add_non_finite buf f

let number f =
  let buf = Buffer.create 24 in
  add_number buf f;
  Buffer.contents buf

(* Shortest decimal form that parses back to exactly [f]: an integral
   value below 1e16 as an integer (as [%.0f], so -0. is [-0]), else the
   [%g] form at the first precision of 15, 16 and 17 that reads back;
   17 always does. *)
let add_shortest_number buf f =
  if not (Float.is_finite f) then add_non_finite buf f
  else if Float.is_integer f && Float.abs f < 1e16 then
    if f = 0. && Float.sign_bit f then Buffer.add_string buf "-0"
    else Scan.add_int buf (int_of_float f)
  else if not (Scan.try_add_g buf ~precision:15 f || Scan.try_add_g buf ~precision:16 f) then
    Scan.add_g buf ~precision:17 f

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number f -> add_shortest_number buf f
    | String s -> add_escaped buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      (* Canonical key order; the sort is stable so duplicate keys (which
         the parser accepts) keep their relative order. *)
      let fields =
        List.stable_sort (fun (a, _) (b, _) -> String.compare a b) fields
      in
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf key;
          Buffer.add_char buf ':';
          go value)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

exception Fail of int * string

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  (* [peek] is only meaningful before the end; callers test [at_end]
     first wherever a NUL byte could be mistaken for it. *)
  let at_end () = !pos >= n in
  let peek () = if !pos < n then String.unsafe_get text !pos else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      match peek () with
      | ' ' | '\t' | '\n' | '\r' -> true
      | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if at_end () then fail (Printf.sprintf "expected %c, found end of input" c)
    else if peek () = c then advance ()
    else fail (Printf.sprintf "expected %c, found %c" c (peek ()))
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub text !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* End of the run of plain bytes starting at [i]: the next quote,
     backslash or the end of the text. *)
  let rec run_end i =
    if i >= n then n
    else
      match String.unsafe_get text i with
      | '"' | '\\' -> i
      | _ -> run_end (i + 1)
  in
  let escape buf =
    if at_end () then fail "unterminated escape";
    let c = peek () in
    advance ();
    match c with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'u' ->
      if !pos + 4 > n then fail "truncated \\u escape";
      let hex = String.sub text !pos 4 in
      pos := !pos + 4;
      let code =
        match int_of_string_opt ("0x" ^ hex) with
        | Some code -> code
        | None -> fail "bad \\u escape"
      in
      (* Byte-wise UTF-8 encoding; enough for the ASCII traces we
         emit and check. *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
    | c -> fail (Printf.sprintf "bad escape \\%c" c)
  in
  (* Plain runs are copied whole; a string without escapes is a single
     [String.sub]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = run_end start in
    if stop < n && String.unsafe_get text stop = '"' then begin
      pos := stop + 1;
      String.sub text start (stop - start)
    end
    else begin
      let buf = Buffer.create (2 * (stop - start) + 16) in
      let rec go start stop =
        Buffer.add_substring buf text start (stop - start);
        pos := stop;
        if at_end () then fail "unterminated string";
        advance ();
        if String.unsafe_get text stop = '\\' then begin
          escape buf;
          go !pos (run_end !pos)
        end
      in
      go start stop;
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    while (not (at_end ())) && is_number_char (peek ()) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    try Scan.float_sub text start (!pos - start)
    with Scan.Malformed -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    if at_end () then fail "expected a value, found end of input";
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if (not (at_end ())) && peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          skip_ws ();
          if at_end () then fail "unterminated object";
          match peek () with
          | ',' ->
            advance ();
            fields ((key, value) :: acc)
          | '}' ->
            advance ();
            List.rev ((key, value) :: acc)
          | c -> fail (Printf.sprintf "expected , or } in object, found %c" c)
        in
        Obj (fields [])
      end
    | '[' ->
      advance ();
      skip_ws ();
      if (not (at_end ())) && peek () = ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let value = parse_value () in
          skip_ws ();
          if at_end () then fail "unterminated array";
          match peek () with
          | ',' ->
            advance ();
            elements (value :: acc)
          | ']' ->
            advance ();
            List.rev (value :: acc)
          | c -> fail (Printf.sprintf "expected , or ] in array, found %c" c)
        in
        List (elements [])
      end
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Number (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after the document";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
    let line, col = Scan.position text at in
    Error (Printf.sprintf "at byte %d, line %d, col %d: %s" at line col msg)
