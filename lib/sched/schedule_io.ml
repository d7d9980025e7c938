module Scan = Noc_util.Scan

type annotation = { task : int; level : int; freq : float; energy : float }

let to_string ?dvfs schedule =
  (match dvfs with
  | None -> ()
  | Some annotations ->
    if Array.length annotations <> Schedule.n_tasks schedule then
      invalid_arg
        (Printf.sprintf "Schedule_io.to_string: %d annotations for %d tasks"
           (Array.length annotations) (Schedule.n_tasks schedule));
    Array.iteri
      (fun i a ->
        if a.task <> i then
          invalid_arg
            (Printf.sprintf
               "Schedule_io.to_string: annotation %d names task %d (must be in task order)"
               i a.task))
      annotations);
  let buf = Buffer.create 2048 in
  let add = Buffer.add_string buf and add_int = Scan.add_int buf in
  let add_times start finish =
    add " start ";
    Scan.add_float buf start;
    add " finish ";
    Scan.add_float buf finish;
    Buffer.add_char buf '\n'
  in
  add (if dvfs = None then "schedule 2\n" else "schedule 3\n");
  Array.iter
    (fun (p : Schedule.placement) ->
      add "place ";
      add_int p.task;
      add " pe ";
      add_int p.pe;
      add_times p.start p.finish)
    (Schedule.placements schedule);
  Array.iter
    (fun (tr : Schedule.transaction) ->
      add "trans ";
      add_int tr.edge;
      add " via ";
      (* A same-tile transfer may carry an empty route in memory; the
         file format canonicalises it to the single shared tile so the
         [via] field is never empty. *)
      (match tr.route with
      | [] -> add_int tr.src_pe
      | first :: rest ->
        add_int first;
        List.iter
          (fun node ->
            Buffer.add_char buf ',';
            add_int node)
          rest);
      add_times tr.start tr.finish)
    (Schedule.transactions schedule);
  (match dvfs with
  | None -> ()
  | Some annotations ->
    (* Hexadecimal floats: bit-exact round trip without shortest-decimal
       search, and visually distinct from the timeline fields. *)
    Array.iter
      (fun a ->
        add "dvfs ";
        add_int a.task;
        add " level ";
        add_int a.level;
        add " freq ";
        Scan.add_hex_float buf a.freq;
        add " energy ";
        Scan.add_hex_float buf a.energy;
        Buffer.add_char buf '\n')
      annotations);
  Buffer.contents buf

(* Line and column of the offending token; line 0 for errors about the
   whole text. *)
exception Parse_error of int * int * string

let fail_at sc ~col fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Scan.line sc, col, msg))) fmt

(* [fail sc i] reports an error at token [i] of the current line. *)
let fail sc i fmt = fail_at sc ~col:(Scan.col sc i) fmt
let whole_text msg = raise (Parse_error (0, 0, msg))

let parse_float sc i what =
  try Scan.float sc i
  with Scan.Malformed -> fail sc i "%s: not a number (%S)" what (Scan.token sc i)

let parse_int sc i what =
  try Scan.int sc i
  with Scan.Malformed -> fail sc i "%s: not an integer (%S)" what (Scan.token sc i)

(* Token [i] as comma-separated node ids. *)
let parse_route sc i =
  let s = Scan.token sc i in
  let len = String.length s in
  let rec nodes start acc =
    let stop = match Scan.find s ',' start len with -1 -> len | j -> j in
    let node =
      try Scan.int_sub s start (stop - start)
      with Scan.Malformed ->
        fail_at sc ~col:(Scan.col sc i + start) "route node: not an integer (%S)"
          (String.sub s start (stop - start))
    in
    if stop = len then List.rev (node :: acc) else nodes (stop + 1) (node :: acc)
  in
  nodes 0 []

let of_string_full platform ctg text =
  let n = Noc_ctg.Ctg.n_tasks ctg and m = Noc_ctg.Ctg.n_edges ctg in
  let placements : Schedule.placement option array = Array.make n None in
  let transactions : Schedule.transaction option array = Array.make m None in
  let annotations : annotation option array = Array.make n None in
  let any_dvfs = ref false in
  let version = ref 0 in
  let sc = Scan.of_string text in
  let add_transaction edge_id ~route ~start ~finish =
    if edge_id < 0 || edge_id >= m then fail sc 1 "unknown edge %d" edge_id;
    if transactions.(edge_id) <> None then fail sc 1 "duplicate transaction %d" edge_id;
    let e = Noc_ctg.Ctg.edge ctg edge_id in
    match (placements.(e.Noc_ctg.Edge.src), placements.(e.Noc_ctg.Edge.dst)) with
    | Some sp, Some dp ->
      let src_pe = sp.Schedule.pe and dst_pe = dp.Schedule.pe in
      let route =
        (* Version-1 files carry no routes: re-derive the platform's
           deterministic one. *)
        match route with
        | Some route -> route
        | None -> Noc_noc.Platform.route platform ~src:src_pe ~dst:dst_pe
      in
      transactions.(edge_id) <-
        Some { Schedule.edge = edge_id; src_pe; dst_pe; route; start; finish }
    | None, _ | _, None -> fail sc 1 "transaction %d before both endpoint placements" edge_id
  in
  let handle_line () =
    let count = Scan.count sc in
    (* Keywords at the even token positions, one value after each. *)
    let shape keywords =
      let rec from i = function
        | [] -> i = count
        | word :: rest -> i + 1 < count && Scan.is sc i word && from (i + 2) rest
      in
      from 0 keywords
    in
    if count = 0 then ()
    else if count = 2 && Scan.is sc 0 "schedule"
            && (Scan.is sc 1 "1" || Scan.is sc 1 "2" || Scan.is sc 1 "3")
    then version := Scan.int sc 1
    else if shape [ "place"; "pe"; "start"; "finish" ] then begin
      let task = parse_int sc 1 "task" in
      if task < 0 || task >= n then fail sc 1 "unknown task %d" task;
      if placements.(task) <> None then fail sc 1 "duplicate placement %d" task;
      let pe = parse_int sc 3 "pe" in
      let start = parse_float sc 5 "start" in
      let finish = parse_float sc 7 "finish" in
      placements.(task) <- Some { Schedule.task; pe; start; finish }
    end
    else if shape [ "trans"; "start"; "finish" ] then begin
      let edge = parse_int sc 1 "edge" in
      let start = parse_float sc 3 "start" in
      let finish = parse_float sc 5 "finish" in
      add_transaction edge ~route:None ~start ~finish
    end
    else if shape [ "trans"; "via"; "start"; "finish" ] then begin
      let edge = parse_int sc 1 "edge" in
      let route = parse_route sc 3 in
      let start = parse_float sc 5 "start" in
      let finish = parse_float sc 7 "finish" in
      add_transaction edge ~route:(Some route) ~start ~finish
    end
    else if shape [ "dvfs"; "level"; "freq"; "energy" ] then begin
      if !version < 3 then fail sc 0 "dvfs annotations need a schedule 3 header";
      let task = parse_int sc 1 "task" in
      if task < 0 || task >= n then fail sc 1 "unknown task %d" task;
      if annotations.(task) <> None then fail sc 1 "duplicate dvfs annotation %d" task;
      let level = parse_int sc 3 "level" in
      if level < 0 then fail sc 3 "level %d is negative" level;
      let freq = parse_float sc 5 "freq" in
      if not (freq > 0. && freq <= 1.) then
        fail sc 5 "freq %s is outside (0, 1]" (Scan.float_to_string freq);
      let energy = parse_float sc 7 "energy" in
      if not (Float.is_finite energy && energy >= 0.) then
        fail sc 7 "energy %s is not a finite non-negative number" (Scan.float_to_string energy);
      any_dvfs := true;
      annotations.(task) <- Some { task; level; freq; energy }
    end
    else fail sc 0 "unknown keyword %S" (Scan.token sc 0)
  in
  try
    while Scan.next_line sc do
      (* A platform lookup that rejects a line's ids still names it. *)
      try handle_line () with Invalid_argument msg -> fail sc 0 "%s" msg
    done;
    if !version = 0 then Error "missing header line (schedule 1, 2 or 3)"
    else begin
      Array.iteri
        (fun i p -> if p = None then whole_text (Printf.sprintf "task %d missing" i))
        placements;
      Array.iteri
        (fun e t -> if t = None then whole_text (Printf.sprintf "transaction %d missing" e))
        transactions;
      let dvfs =
        if not !any_dvfs then None
        else begin
          Array.iteri
            (fun i a ->
              if a = None then
                whole_text (Printf.sprintf "dvfs annotation for task %d missing" i))
            annotations;
          Some (Array.map Option.get annotations)
        end
      in
      Ok
        ( Schedule.make
            ~placements:(Array.map Option.get placements)
            ~transactions:(Array.map Option.get transactions),
          dvfs )
    end
  with
  | Parse_error (0, _, msg) -> Error msg
  | Parse_error (line, col, msg) -> Error (Printf.sprintf "line %d, col %d: %s" line col msg)
  | Invalid_argument msg -> Error msg

let save ?dvfs ~path schedule =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?dvfs schedule))

let load_full ~path platform ctg =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string_full platform ctg (In_channel.input_all ic))
  | exception Sys_error msg -> Error msg
