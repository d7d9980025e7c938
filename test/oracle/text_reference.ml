(* Frozen copies of the format-string printers that the direct buffer
   writers replaced. The bodies are kept as they were; only the module
   paths are qualified. *)

module Ctg = Noc_ctg.Ctg
module Task = Noc_ctg.Task
module Edge = Noc_ctg.Edge
module Schedule = Noc_sched.Schedule
module Schedule_io = Noc_sched.Schedule_io

let hex_float v = Printf.sprintf "%h" v

(* Fnv.fold over a [String.iter] closure. *)
let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let fold h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let fnv1a64 s = fold offset_basis s
let fnv_digest s = Printf.sprintf "%016Lx" (fnv1a64 s)

let ctg_digest g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "ctg-digest/v2 pes %d\n" (Ctg.n_pes g));
  Array.iter
    (fun (t : Task.t) ->
      Buffer.add_string buf (Printf.sprintf "task %d" t.Task.id);
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %h" v)) t.Task.exec_times;
      Buffer.add_char buf '|';
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %h" v)) t.Task.energies;
      (match t.Task.release with
      | None -> ()
      | Some r -> Buffer.add_string buf (Printf.sprintf " release %h" r));
      (match t.Task.deadline with
      | None -> ()
      | Some d -> Buffer.add_string buf (Printf.sprintf " deadline %h" d));
      Buffer.add_char buf '\n')
    (Ctg.tasks g);
  Array.iter
    (fun (e : Edge.t) ->
      Buffer.add_string buf
        (Printf.sprintf "edge %d -> %d %h\n" e.Edge.src e.Edge.dst e.Edge.volume))
    (Ctg.edges g);
  fnv_digest (Buffer.contents buf)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_to_string v =
  let short = Printf.sprintf "%.12g" v in
  if float_of_string short = v then short else Printf.sprintf "%.17g" v

let schedule_to_string ?dvfs schedule =
  (match dvfs with
  | None -> ()
  | Some annotations ->
    if Array.length annotations <> Schedule.n_tasks schedule then
      invalid_arg
        (Printf.sprintf "Schedule_io.to_string: %d annotations for %d tasks"
           (Array.length annotations) (Schedule.n_tasks schedule));
    Array.iteri
      (fun i (a : Schedule_io.annotation) ->
        if a.task <> i then
          invalid_arg
            (Printf.sprintf
               "Schedule_io.to_string: annotation %d names task %d (must be in task order)"
               i a.task))
      annotations);
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "schedule %d\n" (if dvfs = None then 2 else 3);
  Array.iter
    (fun (p : Schedule.placement) ->
      add "place %d pe %d start %s finish %s\n" p.task p.pe (float_to_string p.start)
        (float_to_string p.finish))
    (Schedule.placements schedule);
  Array.iter
    (fun (tr : Schedule.transaction) ->
      (* A same-tile transfer may carry an empty route in memory; the
         file format canonicalises it to the single shared tile so the
         [via] field is never empty. *)
      let route = match tr.route with [] -> [ tr.src_pe ] | route -> route in
      add "trans %d via %s start %s finish %s\n" tr.edge
        (String.concat "," (List.map string_of_int route))
        (float_to_string tr.start) (float_to_string tr.finish))
    (Schedule.transactions schedule);
  (match dvfs with
  | None -> ()
  | Some annotations ->
    (* Hexadecimal floats: bit-exact round trip without shortest-decimal
       search, and visually distinct from the timeline fields. *)
    Array.iter
      (fun (a : Schedule_io.annotation) ->
        add "dvfs %d level %d freq %h energy %h\n" a.task a.level a.freq a.energy)
      annotations);
  Buffer.contents buf

let json_number f =
  if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else if Float.is_nan f then "\"nan\""
  else Printf.sprintf "%.17g" f

(* Shortest decimal form that parses back to exactly [f]. %.17g always
   round-trips for doubles; most values need far fewer digits. *)
let json_shortest_number f =
  if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else if Float.is_nan f then "\"nan\""
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.0f" f
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

let decision_json ~run ~seq ~task ~rule ~chosen ~budgeted_deadline ~finishes =
  let candidates =
    String.concat ", "
      (Array.to_list
         (Array.mapi
            (fun pe f -> Printf.sprintf "{\"pe\": %d, \"f\": %s}" pe (json_number f))
            finishes))
  in
  Printf.sprintf
    "{\"run\": %s, \"seq\": %d, \"task\": %d, \"rule\": %s, \"chosen\": %d, \
     \"chosen_f\": %s, \"budgeted_deadline\": %s, \"candidates\": [%s]}"
    (escape_string run) seq task (escape_string rule) chosen
    (json_number finishes.(chosen))
    (json_number budgeted_deadline)
    candidates
