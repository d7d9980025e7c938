(* Differential tests: the direct buffer writers against the frozen
   format-string printers of Text_reference.

   The hex-float writer is checked on random 64-bit patterns and on
   every special value; FNV-1a-64 on the published test vectors, on
   arbitrary splits of a string and against the closure fold; the CTG
   digest on random graphs with and without release times and
   deadlines; the JSON escaper on random byte strings rich in quotes,
   backslashes and control bytes; the schedule writer on random
   schedules with and without DVFS annotations; the decimal digit
   generator against [Printf]'s [%.*g] at every precision from 1 to 17,
   and the decimal printers built on it against their frozen [Printf]
   versions, on edge values and random doubles. Every comparison is of
   bytes. A golden file pins the texts of the paper's category suites. *)

module Scan = Noc_util.Scan
module Fnv = Noc_util.Fnv
module Prng = Noc_util.Prng
module Reference = Noc_oracle.Text_reference
module Ctg = Noc_ctg.Ctg
module Task = Noc_ctg.Task
module Edge = Noc_ctg.Edge
module Json = Noc_obs.Json
module Schedule = Noc_sched.Schedule
module Schedule_io = Noc_sched.Schedule_io

let hex v =
  let buf = Buffer.create 32 in
  Scan.add_hex_float buf v;
  Buffer.contents buf

let check_hex v =
  Alcotest.(check string)
    (Printf.sprintf "%Lx" (Int64.bits_of_float v))
    (Reference.hex_float v) (hex v)

let test_hex_special_values () =
  List.iter check_hex
    [
      0.; -0.; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
      Int64.float_of_bits 0x7FF0_0000_0000_0001L; Int64.float_of_bits 0xFFFF_FFFF_FFFF_FFFFL;
      0x1p-1074; -0x1p-1074; Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL; Float.min_float;
      Float.max_float; -.Float.max_float; 1.; -1.; 0.5; 3.; 0.1; 1e-300; 1e300;
      Float.epsilon; 1. +. Float.epsilon;
    ]

let qcheck_hex =
  QCheck.Test.make ~name:"hex writer matches Printf on random bit patterns" ~count:5000
    QCheck.int64 (fun bits ->
      let v = Int64.float_of_bits bits in
      String.equal (Reference.hex_float v) (hex v)
      || QCheck.Test.fail_reportf "%Lx: %s, Printf %s" bits (hex v) (Reference.hex_float v))

let qcheck_int =
  QCheck.Test.make ~name:"int writer matches string_of_int" ~count:1000
    QCheck.(oneof [ int; oneofl [ 0; -1; 9; 10; -10; min_int; max_int ] ])
    (fun n ->
      let buf = Buffer.create 24 in
      Scan.add_int buf n;
      String.equal (Buffer.contents buf) (string_of_int n))

(* ------------------------------------------------------------------ *)
(* FNV-1a-64                                                           *)

let test_fnv_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) (Printf.sprintf "fnv1a64 %S" input) expected
        (Fnv.to_hex (Fnv.fnv1a64 input)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ]

let qcheck_fnv_split =
  QCheck.Test.make ~name:"fnv fold over any split equals the whole" ~count:500
    QCheck.(pair string small_nat)
    (fun (s, k) ->
      let k = if s = "" then 0 else k mod (String.length s + 1) in
      let a = String.sub s 0 k and b = String.sub s k (String.length s - k) in
      Int64.equal (Fnv.fold (Fnv.fold Fnv.offset_basis a) b) (Fnv.fnv1a64 s)
      && Int64.equal (Fnv.fnv1a64 s) (Reference.fnv1a64 s))

(* ------------------------------------------------------------------ *)
(* CTG digest                                                          *)

(* Any positive double, from subnormals to the largest finite one, or
   an everyday magnitude. *)
let positive rng =
  if Prng.bool rng then Prng.float_in rng ~min:0.01 ~max:1000.
  else
    let bits = Int64.logand (Prng.int64 rng) 0x7FEF_FFFF_FFFF_FFFFL in
    if bits = 0L then 1. else Int64.float_of_bits bits

let random_ctg rng =
  let n = Prng.int_in rng ~min:1 ~max:25 and pes = Prng.int_in rng ~min:1 ~max:6 in
  let tasks =
    Array.init n (fun id ->
        let exec_times = Array.init pes (fun _ -> positive rng) in
        let energies =
          Array.init pes (fun _ -> if Prng.int rng ~bound:8 = 0 then 0. else positive rng)
        in
        let deadline = if Prng.bool rng then Some (positive rng) else None in
        let release =
          match deadline with
          | Some d when Prng.bool rng -> Some (Prng.float rng ~bound:1. *. d)
          | None when Prng.bool rng -> Some (Prng.float_in rng ~min:0. ~max:100.)
          | Some _ | None -> None
        in
        Task.make ~id ~exec_times ~energies ?release ?deadline ())
  in
  (* Arcs go forward in id order, declared in a random order. *)
  let arcs =
    List.concat
      (List.init n (fun src ->
           List.filter_map
             (fun dst -> if Prng.int rng ~bound:4 = 0 then Some (src, dst) else None)
             (List.init (n - src - 1) (fun k -> src + 1 + k))))
    |> Array.of_list
  in
  Prng.shuffle rng arcs;
  let edges =
    Array.mapi
      (fun id (src, dst) ->
        let volume = if Prng.int rng ~bound:5 = 0 then 0. else positive rng in
        Edge.make ~id ~src ~dst ~volume)
      arcs
  in
  Ctg.make_exn ~tasks ~edges

let qcheck_digest =
  QCheck.Test.make ~name:"ctg digest matches the Printf serialisation" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = random_ctg (Prng.create ~seed) in
      String.equal (Ctg.digest g) (Reference.ctg_digest g))

(* Graphs with and without windows, so both option branches are met. *)
let test_digest_windows () =
  let rng = Prng.create ~seed:7 in
  let releases = ref 0 and deadlines = ref 0 and bare = ref 0 in
  for _ = 1 to 50 do
    let g = random_ctg rng in
    Array.iter
      (fun (t : Task.t) ->
        if t.Task.release <> None then incr releases;
        if t.Task.deadline <> None then incr deadlines;
        if t.Task.release = None && t.Task.deadline = None then incr bare)
      (Ctg.tasks g);
    Alcotest.(check string) "digest" (Reference.ctg_digest g) (Ctg.digest g)
  done;
  Alcotest.(check bool) "every window shape drawn" true
    (!releases > 0 && !deadlines > 0 && !bare > 0)

(* ------------------------------------------------------------------ *)
(* JSON escaping                                                       *)

let json_bytes =
  let special =
    QCheck.Gen.oneofl
      ([ '"'; '\\'; '\x7f'; '\x80'; '\xc3'; '\xa9'; '\xff' ] @ List.init 0x20 Char.chr)
  in
  let byte = QCheck.Gen.(frequency [ (3, printable); (2, special); (1, char) ]) in
  QCheck.make ~print:(Printf.sprintf "%S") QCheck.Gen.(string_size ~gen:byte (int_bound 80))

let qcheck_json =
  QCheck.Test.make ~name:"json escaping matches the char-by-char escaper" ~count:1000
    json_bytes (fun s ->
      let expected = Reference.escape_string s in
      String.equal (Json.escape_string s) expected
      && String.equal (Json.to_string (Json.String s)) expected
      && String.equal
           (Json.to_string (Json.Obj [ (s, Json.List [ Json.String s ]) ]))
           ("{" ^ expected ^ ":[" ^ expected ^ "]}"))

let test_json_every_control_byte () =
  let s = String.init 0x20 Char.chr ^ "\"\\\x7f\x80\xff" in
  Alcotest.(check string) "escape" (Reference.escape_string s) (Json.escape_string s);
  Alcotest.(check string) "to_string" (Reference.escape_string s)
    (Json.to_string (Json.String s))

(* ------------------------------------------------------------------ *)
(* Schedule text                                                       *)

let any_float rng =
  match Prng.int rng ~bound:4 with
  | 0 -> Int64.float_of_bits (Prng.int64 rng)
  | 1 -> float_of_int (Prng.int rng ~bound:1000)
  | _ -> Prng.float_in rng ~min:0. ~max:10_000.

let random_schedule rng =
  let n = Prng.int_in rng ~min:0 ~max:20 and m = Prng.int rng ~bound:30 in
  let placements =
    Array.init n (fun task ->
        {
          Schedule.task;
          pe = Prng.int rng ~bound:64;
          start = any_float rng;
          finish = any_float rng;
        })
  in
  let transactions =
    Array.init m (fun edge ->
        let src_pe = Prng.int rng ~bound:64 in
        {
          Schedule.edge;
          src_pe;
          dst_pe = Prng.int rng ~bound:64;
          route = List.init (Prng.int rng ~bound:6) (fun _ -> Prng.int rng ~bound:1000);
          start = any_float rng;
          finish = any_float rng;
        })
  in
  let schedule = Schedule.make ~placements ~transactions in
  let dvfs =
    if Prng.bool rng then None
    else
      Some
        (Array.init n (fun task ->
             {
               Schedule_io.task;
               level = Prng.int rng ~bound:8;
               freq = any_float rng;
               energy = any_float rng;
             }))
  in
  (schedule, dvfs)

let qcheck_schedule =
  QCheck.Test.make ~name:"schedule text matches the ksprintf writer" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let schedule, dvfs = random_schedule (Prng.create ~seed) in
      String.equal
        (Schedule_io.to_string ?dvfs schedule)
        (Reference.schedule_to_string ?dvfs schedule))

(* ------------------------------------------------------------------ *)
(* Decimal floats                                                      *)

(* Specials, and every power of two and ten of the double range with
   its two neighbours: the [%g] layout switches at 1e-5, 1e-4, 1e11,
   1e12, 1e16 and 1e17 are among them. *)
let edge_floats =
  let around v = [ v; Float.pred v; Float.succ v ] in
  let powers =
    List.init 2098 (fun k -> ldexp 1. (k - 1074))
    @ List.init 632 (fun k -> float_of_string (Printf.sprintf "1e%d" (k - 323)))
  in
  [
    0.; -0.; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
    Int64.float_of_bits 0x7FF0_0000_0000_0001L; Float.max_float; Float.min_float;
    0x1p-1074; Float.epsilon;
  ]
  @ List.concat_map around powers

(* Exact ties: a double whose decimal expansion stops at a 5 one digit
   past the printed precision, so only half-even rounding of the exact
   value decides. [1234567890.125 + i] ties at 12 digits, [i / 8] at
   small precisions, and odd multiples of negative powers of two at
   every precision up to 17. *)
let tie_floats =
  List.init 2000 (fun i -> 1234567890.125 +. float_of_int i)
  @ List.init 4000 (fun i -> float_of_int i /. 8.)
  @ List.concat_map
      (fun precision ->
        (* [int + k / 2^j] with [k] odd has exactly [j] fraction digits,
           the last a 5; an integer part of [precision + 1 - j] digits
           puts that 5 one past the precision. *)
        let rng = Prng.create ~seed:precision in
        List.concat_map
          (fun j ->
            let low = 10. ** float_of_int (precision - j)
            and high = Float.min (10. ** float_of_int (precision + 1 - j)) (ldexp 1. (53 - j)) in
            if low >= high then []
            else
              List.init 300 (fun _ ->
                  let k = (2 * Prng.int rng ~bound:(1 lsl (j - 1))) + 1 in
                  Float.round (Prng.float_in rng ~min:low ~max:high) +. ldexp (float_of_int k) (-j)))
          [ 1; 2; 3; 4 ])
      [ 12; 15; 16; 17 ]

(* Round-up carries: [0.999...95 * 10^k] and its neighbours, which
   print as a power of ten one decade up, and [...94]/[...96] beside
   them; at every layout switch of [%g]. *)
let carry_floats =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun d ->
          List.concat_map
            (fun tail ->
              let v =
                float_of_string (Printf.sprintf "0.%s%se%d" (String.make d '9') tail k)
              in
              [ v; Float.pred v; Float.succ v ])
            [ "5"; "4"; "6"; "" ])
        (List.init 17 (fun d -> d + 1)))
    (List.init 36 (fun k -> k - 15))

(* JSON's integer rule switches at 1e16, and doubles stop being every
   integer at 2^53. *)
let json_integer_floats =
  List.concat_map
    (fun base -> List.init 41 (fun i -> base +. float_of_int (2 * (i - 20))))
    [ 0x1p53; 1e16; 1e15; 1e17; -0x1p53; -1e16 ]
  @ List.init 41 (fun i -> 0x1p53 +. float_of_int (i - 20))

let fixed_floats = edge_floats @ tie_floats @ carry_floats @ json_integer_floats

(* A random double: any bit pattern (subnormals, zeros, infinities and
   NaNs of both signs included), a log-uniform magnitude in
   [1e-12, 1e18) of either sign, an odd multiple of a power of two
   (exact decimal ties), or one of the fixed values. *)
let decimal_gen =
  let open QCheck.Gen in
  let fixed = Array.of_list fixed_floats in
  frequency
    [
      (3, map Int64.float_of_bits ui64);
      ( 4,
        map2
          (fun e negative ->
            let v = 10. ** e in
            if negative then -.v else v)
          (float_range (-12.) 18.) bool );
      ( 2,
        map3
          (fun bits n j -> ldexp (float_of_int ((n land ((1 lsl bits) - 1)) lor 1)) (-j))
          (int_range 1 53) (int_bound max_int) (int_range 0 60) );
      (1, map (fun i -> fixed.(i)) (int_bound (Array.length fixed - 1)));
    ]

let decimal_arb = QCheck.make ~print:(fun v -> Printf.sprintf "%h (%.17g)" v v) decimal_gen

let check_printer name printer reference =
  List.iter
    (fun v ->
      let got = printer v and expected = reference v in
      if not (String.equal got expected) then
        Alcotest.failf "%s %h: %S, reference %S" name v got expected)
    fixed_floats

let test_float_to_string_fixed () =
  check_printer "float_to_string" Scan.float_to_string Reference.float_to_string

let test_json_numbers_fixed () =
  check_printer "Json.number" Json.number Reference.json_number;
  check_printer "Json.to_string"
    (fun v -> Json.to_string (Json.Number v))
    Reference.json_shortest_number

let qcheck_float_to_string =
  QCheck.Test.make ~name:"float_to_string matches the Printf printer" ~count:20000 decimal_arb
    (fun v -> String.equal (Scan.float_to_string v) (Reference.float_to_string v))

let qcheck_json_numbers =
  QCheck.Test.make ~name:"json numbers match the Printf printers" ~count:20000 decimal_arb
    (fun v ->
      String.equal (Json.number v) (Reference.json_number v)
      && String.equal (Json.to_string (Json.Number v)) (Reference.json_shortest_number v))

let g precision v =
  let buf = Buffer.create 32 in
  Scan.add_g buf ~precision v;
  Buffer.contents buf

let precisions = List.init 17 (fun p -> p + 1)

let test_add_g_fixed () =
  List.iter
    (fun precision ->
      check_printer
        (Printf.sprintf "add_g %d" precision)
        (g precision)
        (Printf.sprintf "%.*g" precision))
    precisions

let qcheck_add_g =
  QCheck.Test.make ~name:"add_g matches Printf %.*g at precisions 1-17" ~count:20000
    decimal_arb (fun v ->
      List.for_all
        (fun precision ->
          let expected = Printf.sprintf "%.*g" precision v in
          String.equal (g precision v) expected
          || QCheck.Test.fail_reportf "%%.%dg of %h: %S, Printf %S" precision v (g precision v)
               expected)
        precisions)

(* The writers that print floats inside larger texts. *)
let qcheck_vf_and_fault =
  QCheck.Test.make ~name:"V/f ladders and fault windows print as before" ~count:2000
    QCheck.(pair (int_range 0 1_000_000) decimal_arb)
    (fun (seed, v) ->
      let rng = Prng.create ~seed in
      let ladder =
        Array.init (Prng.int_in rng ~min:1 ~max:6) (fun i ->
            if i = 0 then 1. else Prng.float_in rng ~min:0.01 ~max:0.99)
      in
      Array.sort (fun a b -> Float.compare b a) ladder;
      let vf_ok =
        match Noc_dvfs.Vf_table.of_ratios ladder with
        | Error _ -> true
        | Ok t ->
          String.equal (Noc_dvfs.Vf_table.to_string t)
            (String.concat "," (List.map Reference.float_to_string (Array.to_list ladder)))
      in
      let from_time = Float.abs v and pe = Prng.int rng ~bound:16 in
      let until_time = if Prng.bool rng then infinity else from_time +. Prng.float_in rng ~min:0.5 ~max:1e6 in
      let fault_ok =
        match Noc_fault.Fault.pe ~from_time ~until_time pe () with
        | exception Invalid_argument _ -> true
        | f ->
          let window =
            if from_time = 0. && until_time = infinity then ""
            else
              Printf.sprintf "@%s:%s"
                (if from_time = 0. then "" else Reference.float_to_string from_time)
                (if until_time = infinity then "" else Reference.float_to_string until_time)
          in
          String.equal (Noc_fault.Fault.to_string f) (Printf.sprintf "pe:%d%s" pe window)
      in
      vf_ok && fault_ok)

(* Decision records through the live log against the Printf record
   builder. *)
let test_decision_records () =
  let module Decisions = Noc_obs.Decisions in
  let rng = Prng.create ~seed:11 in
  let fixed = Array.of_list fixed_floats in
  let pick () =
    if Prng.bool rng then fixed.(Prng.int rng ~bound:(Array.length fixed))
    else Prng.float_in rng ~min:0. ~max:1e5
  in
  let records =
    List.init 300 (fun seq ->
        let finishes = Array.init (Prng.int_in rng ~min:1 ~max:16) (fun _ -> pick ()) in
        let chosen = Prng.int rng ~bound:(Array.length finishes) in
        let rule = if Prng.bool rng then "deadline" else "regret\"\n" in
        (seq, seq mod 7, rule, chosen, pick (), finishes))
  in
  Decisions.reset ();
  Decisions.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Decisions.set_enabled false)
    (fun () ->
      Decisions.with_run "r\t1" (fun () ->
          List.iter
            (fun (_, task, rule, chosen, budgeted_deadline, finishes) ->
              Decisions.record ~task ~rule ~chosen ~budgeted_deadline ~finishes)
            records));
  let got = Decisions.export_jsonl () in
  Decisions.reset ();
  let expected =
    String.concat ""
      (List.map
         (fun (seq, task, rule, chosen, budgeted_deadline, finishes) ->
           Reference.decision_json ~run:"r\t1" ~seq ~task ~rule ~chosen ~budgeted_deadline
             ~finishes
           ^ "\n")
         records)
  in
  Alcotest.(check string) "decision log" expected got

(* ------------------------------------------------------------------ *)
(* Golden text                                                         *)

(* The MD5 of every text the decimal printers write for the paper's
   category I and II graphs 0-9: the CTG text, its EAS schedule text,
   the decision log of category I graph 0, and a Chrome trace-event
   document of that schedule printed by [Json.to_string]. A change to
   any decimal digit flips a line. Regenerate with
     TEXT_GOLDEN_REGEN=$PWD/test/text_golden.txt \
       dune exec test/test_main.exe -- test text_diff *)

let golden_file = "text_golden.txt"
let md5 s = Digest.to_hex (Digest.string s)

(* The schedule as complete events, one lane per PE and one per link
   transaction, timestamps and durations in the schedule's time unit. *)
let schedule_trace schedule =
  let event name tid start finish args =
    Json.Obj
      [
        ("name", Json.String name); ("ph", Json.String "X"); ("pid", Json.int 0);
        ("tid", Json.int tid); ("ts", Json.Number start); ("dur", Json.Number (finish -. start));
        ("args", Json.Obj args);
      ]
  in
  let tasks =
    Array.to_list
      (Array.map
         (fun (p : Schedule.placement) ->
           event (Printf.sprintf "task %d" p.task) p.pe p.start p.finish
             [ ("finish", Json.Number p.finish) ])
         (Schedule.placements schedule))
  in
  let transactions =
    Array.to_list
      (Array.map
         (fun (tr : Schedule.transaction) ->
           event (Printf.sprintf "edge %d" tr.edge) (1000 + tr.src_pe) tr.start tr.finish
             [ ("hops", Json.int (List.length tr.route)); ("mid", Json.Number ((tr.start +. tr.finish) /. 2.)) ])
         (Schedule.transactions schedule))
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (tasks @ transactions));
         ("displayTimeUnit", Json.String "ms");
         ("otherData", Json.Obj [ ("schema", Json.String "nocsched/trace/v1") ]);
       ])

let golden_lines () =
  let module Category = Noc_tgff.Category in
  let platform = Category.platform in
  let lines = ref [] in
  let add label text = lines := Printf.sprintf "%s %s" label (md5 text) :: !lines in
  List.iter
    (fun (name, kind) ->
      for index = 0 to 9 do
        let g = Category.benchmark kind ~index in
        let label what = Printf.sprintf "%s-%d %s" name index what in
        add (label "ctg") (Noc_ctg.Ctg_io.to_string g);
        let outcome = Noc_eas.Eas.schedule platform g in
        add (label "schedule") (Schedule_io.to_string outcome.schedule);
        if kind = Category.Category_i && index = 0 then begin
          add (label "trace") (schedule_trace outcome.schedule);
          let module Decisions = Noc_obs.Decisions in
          Decisions.reset ();
          Decisions.set_enabled true;
          Fun.protect
            ~finally:(fun () -> Decisions.set_enabled false)
            (fun () ->
              Decisions.with_run "golden" (fun () -> ignore (Noc_eas.Eas.schedule platform g)));
          let log = Decisions.export_jsonl () in
          Decisions.reset ();
          add (label "decisions") log
        end
      done)
    [ ("cat1", Category.Category_i); ("cat2", Category.Category_ii) ];
  List.rev !lines

let test_golden_text () =
  let lines = golden_lines () in
  match Sys.getenv_opt "TEXT_GOLDEN_REGEN" with
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines)
  | None ->
    let golden =
      In_channel.with_open_text golden_file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    Alcotest.(check (list string)) "pinned texts" golden lines

let suite =
  [
    Alcotest.test_case "hex writer on special values" `Quick test_hex_special_values;
    QCheck_alcotest.to_alcotest qcheck_hex;
    QCheck_alcotest.to_alcotest qcheck_int;
    Alcotest.test_case "fnv published vectors" `Quick test_fnv_vectors;
    QCheck_alcotest.to_alcotest qcheck_fnv_split;
    Alcotest.test_case "ctg digest with and without windows" `Quick test_digest_windows;
    QCheck_alcotest.to_alcotest qcheck_digest;
    Alcotest.test_case "json escapes every control byte" `Quick test_json_every_control_byte;
    QCheck_alcotest.to_alcotest qcheck_json;
    QCheck_alcotest.to_alcotest qcheck_schedule;
    Alcotest.test_case "add_g on edge values" `Quick test_add_g_fixed;
    QCheck_alcotest.to_alcotest qcheck_add_g;
    Alcotest.test_case "float_to_string on edge values" `Quick test_float_to_string_fixed;
    QCheck_alcotest.to_alcotest qcheck_float_to_string;
    Alcotest.test_case "json numbers on edge values" `Quick test_json_numbers_fixed;
    QCheck_alcotest.to_alcotest qcheck_json_numbers;
    QCheck_alcotest.to_alcotest qcheck_vf_and_fault;
    Alcotest.test_case "decision records" `Quick test_decision_records;
    Alcotest.test_case "golden text digests" `Quick test_golden_text;
  ]
