(* Differential tests: the direct buffer writers against the frozen
   format-string printers of Text_reference.

   The hex-float writer is checked on random 64-bit patterns and on
   every special value; FNV-1a-64 on the published test vectors, on
   arbitrary splits of a string and against the closure fold; the CTG
   digest on random graphs with and without release times and
   deadlines; the JSON escaper on random byte strings rich in quotes,
   backslashes and control bytes; and the schedule writer on random
   schedules with and without DVFS annotations. Every comparison is of
   bytes. *)

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
  ]
