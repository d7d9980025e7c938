let to_string ctg =
  let buf = Buffer.create 4096 in
  let str = Buffer.add_string buf in
  let int = Noc_util.Scan.add_int buf and float = Noc_util.Scan.add_float buf in
  let floats values =
    Array.iteri
      (fun i v ->
        if i > 0 then str " ";
        float v)
      values
  in
  str "ctg 1\npes ";
  int (Ctg.n_pes ctg);
  str "\n";
  Array.iter
    (fun (t : Task.t) ->
      str "task ";
      int t.id;
      str " name ";
      str t.name;
      Option.iter (fun r -> str " release "; float r) t.release;
      Option.iter (fun d -> str " deadline "; float d) t.deadline;
      str "\n  times ";
      floats t.exec_times;
      str "\n  energies ";
      floats t.energies;
      str "\n")
    (Ctg.tasks ctg);
  Array.iter
    (fun (e : Edge.t) ->
      str "edge ";
      int e.id;
      str " from ";
      int e.src;
      str " to ";
      int e.dst;
      str " volume ";
      float e.volume;
      str "\n")
    (Ctg.edges ctg);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing *)

module Scan = Noc_util.Scan

type partial_task = {
  id : int;
  name : string;
  release : float option;
  deadline : float option;
  mutable times : float array option;
  mutable energies : float array option;
}

type state = {
  mutable n_pes : int option;
  mutable tasks_rev : partial_task list;
  mutable next_task : int;
  mutable edges_rev : Edge.t list;
  mutable next_edge : int;
  mutable version_seen : bool;
}

(* Line and column of the offending token; line 0 for errors about the
   whole text. *)
exception Parse_error of int * int * string

(* [fail sc i] reports an error at token [i] of the current line. *)
let fail sc i fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Scan.line sc, Scan.col sc i, msg))) fmt

let parse_float sc i what =
  try Scan.float sc i
  with Scan.Malformed -> fail sc i "%s: not a number (%S)" what (Scan.token sc i)

let parse_int sc i what =
  try Scan.int sc i
  with Scan.Malformed -> fail sc i "%s: not an integer (%S)" what (Scan.token sc i)

(* Tokens 1 .. count - 1 of a cost line. *)
let parse_floats sc what =
  let costs = Array.make (Scan.count sc - 1) 0. in
  for i = 1 to Scan.count sc - 1 do
    costs.(i - 1) <- parse_float sc i what
  done;
  costs

let current_task st sc =
  match st.tasks_rev with
  | [] -> fail sc 0 "cost line outside a task block"
  | t :: _ -> t

let task_line st sc =
  let n = Scan.count sc in
  if n < 4 || not (Scan.is sc 2 "name") then
    fail sc 0 "malformed task line (task <id> name <name> [release <r>] [deadline <d>])";
  let id = parse_int sc 1 "task id" in
  if id <> st.next_task then fail sc 1 "task ids must be dense and ordered (got %d)" id;
  let release, deadline =
    if n = 4 then (None, None)
    else if n = 6 && Scan.is sc 4 "deadline" then (None, Some (parse_float sc 5 "deadline"))
    else if n = 6 && Scan.is sc 4 "release" then (Some (parse_float sc 5 "release"), None)
    else if n = 8 && Scan.is sc 4 "release" && Scan.is sc 6 "deadline" then
      (* The deadline is read first: a line with both numbers malformed
         reports the deadline, the error the differential oracle in
         test/oracle gives. *)
      let deadline = parse_float sc 7 "deadline" in
      (Some (parse_float sc 5 "release"), Some deadline)
    else fail sc 4 "malformed task line"
  in
  st.tasks_rev <-
    { id; name = Scan.token sc 3; release; deadline; times = None; energies = None }
    :: st.tasks_rev;
  st.next_task <- id + 1

let edge_line st sc =
  if not
       (Scan.count sc = 8 && Scan.is sc 2 "from" && Scan.is sc 4 "to"
      && Scan.is sc 6 "volume")
  then fail sc 0 "malformed edge line (edge <id> from <s> to <d> volume <v>)";
  let id = parse_int sc 1 "edge id" in
  if id <> st.next_edge then fail sc 1 "edge ids must be dense and ordered (got %d)" id;
  let src = parse_int sc 3 "edge src" in
  let dst = parse_int sc 5 "edge dst" in
  let volume = parse_float sc 7 "edge volume" in
  (try st.edges_rev <- Edge.make ~id ~src ~dst ~volume :: st.edges_rev
   with Invalid_argument msg -> fail sc 0 "%s" msg);
  st.next_edge <- id + 1

let handle_line st sc =
  if Scan.count sc = 0 then ()
  else if Scan.is sc 0 "times" then begin
    let t = current_task st sc in
    if t.times <> None then fail sc 0 "duplicate times for task %d" t.id;
    t.times <- Some (parse_floats sc "times")
  end
  else if Scan.is sc 0 "energies" then begin
    let t = current_task st sc in
    if t.energies <> None then fail sc 0 "duplicate energies for task %d" t.id;
    t.energies <- Some (parse_floats sc "energies")
  end
  else if Scan.is sc 0 "edge" then edge_line st sc
  else if Scan.is sc 0 "task" then task_line st sc
  else if Scan.is sc 0 "pes" then begin
    if Scan.count sc <> 2 then fail sc 0 "pes expects one integer";
    let n = parse_int sc 1 "pes" in
    if n <= 0 then fail sc 1 "pes must be positive";
    st.n_pes <- Some n
  end
  else if Scan.is sc 0 "ctg" then begin
    if not (Scan.count sc = 2 && Scan.is sc 1 "1") then
      fail sc 0 "unsupported format version (expected: ctg 1)";
    st.version_seen <- true
  end
  else fail sc 0 "unknown keyword %S" (Scan.token sc 0)

let whole_text msg = raise (Parse_error (0, 0, msg))

let of_string text =
  let st =
    {
      n_pes = None;
      tasks_rev = [];
      next_task = 0;
      edges_rev = [];
      next_edge = 0;
      version_seen = false;
    }
  in
  try
    let sc = Scan.of_string text in
    while Scan.next_line sc do
      handle_line st sc
    done;
    if not st.version_seen then Error "missing header line (ctg 1)"
    else begin
      let n_pes = match st.n_pes with Some n -> n | None -> whole_text "missing pes line" in
      let tasks =
        List.rev st.tasks_rev
        |> List.map (fun (p : partial_task) ->
               let times =
                 match p.times with
                 | Some t -> t
                 | None -> whole_text (Printf.sprintf "task %d lacks times" p.id)
               in
               let energies =
                 match p.energies with
                 | Some e -> e
                 | None -> whole_text (Printf.sprintf "task %d lacks energies" p.id)
               in
               if Array.length times <> n_pes || Array.length energies <> n_pes then
                 whole_text (Printf.sprintf "task %d: expected %d cost entries" p.id n_pes);
               try
                 Task.make ~id:p.id ~name:p.name ~exec_times:times ~energies
                   ?release:p.release ?deadline:p.deadline ()
               with Invalid_argument msg -> whole_text msg)
        |> Array.of_list
      in
      Ctg.make ~tasks ~edges:(Array.of_list (List.rev st.edges_rev))
    end
  with Parse_error (line, col, msg) ->
    if line = 0 then Error msg else Error (Printf.sprintf "line %d, col %d: %s" line col msg)

let save ~path ctg =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ctg))

let load ~path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (In_channel.input_all ic))
  | exception Sys_error msg -> Error msg
