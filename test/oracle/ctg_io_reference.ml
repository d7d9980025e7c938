(* The split-based CTG text parser that preceded the {!Noc_util.Scan}
   port of [Ctg_io.of_string], kept verbatim as a differential oracle:
   every text must get the same graph, or the same error apart from the
   column the scanner adds. *)

open Noc_ctg

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

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

let tokens_of_line line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_float line what s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail line "%s: not a number (%S)" what s

let parse_int line what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail line "%s: not an integer (%S)" what s

let parse_floats line what rest = Array.of_list (List.map (parse_float line what) rest)

let current_task st line =
  match st.tasks_rev with
  | [] -> fail line "cost line outside a task block"
  | t :: _ -> t

let handle_line st line_no words =
  match words with
  | [] -> ()
  | "ctg" :: version -> (
    match version with
    | [ "1" ] -> st.version_seen <- true
    | _ -> fail line_no "unsupported format version (expected: ctg 1)")
  | "pes" :: rest -> (
    match rest with
    | [ n ] ->
      let n = parse_int line_no "pes" n in
      if n <= 0 then fail line_no "pes must be positive";
      st.n_pes <- Some n
    | _ -> fail line_no "pes expects one integer")
  | "task" :: rest -> (
    match rest with
    | id :: "name" :: name :: tail ->
      let id = parse_int line_no "task id" id in
      if id <> st.next_task then
        fail line_no "task ids must be dense and ordered (got %d)" id;
      let release, deadline =
        match tail with
        | [] -> (None, None)
        | [ "deadline"; d ] -> (None, Some (parse_float line_no "deadline" d))
        | [ "release"; r ] -> (Some (parse_float line_no "release" r), None)
        | [ "release"; r; "deadline"; d ] ->
          ( Some (parse_float line_no "release" r),
            Some (parse_float line_no "deadline" d) )
        | _ -> fail line_no "malformed task line"
      in
      st.tasks_rev <-
        { id; name; release; deadline; times = None; energies = None } :: st.tasks_rev;
      st.next_task <- id + 1
    | _ ->
      fail line_no
        "malformed task line (task <id> name <name> [release <r>] [deadline <d>])")
  | "times" :: rest ->
    let t = current_task st line_no in
    if t.times <> None then fail line_no "duplicate times for task %d" t.id;
    t.times <- Some (parse_floats line_no "times" rest)
  | "energies" :: rest ->
    let t = current_task st line_no in
    if t.energies <> None then fail line_no "duplicate energies for task %d" t.id;
    t.energies <- Some (parse_floats line_no "energies" rest)
  | "edge" :: rest -> (
    match rest with
    | [ id; "from"; src; "to"; dst; "volume"; volume ] ->
      let id = parse_int line_no "edge id" id in
      if id <> st.next_edge then
        fail line_no "edge ids must be dense and ordered (got %d)" id;
      let src = parse_int line_no "edge src" src in
      let dst = parse_int line_no "edge dst" dst in
      let volume = parse_float line_no "edge volume" volume in
      (try st.edges_rev <- Edge.make ~id ~src ~dst ~volume :: st.edges_rev
       with Invalid_argument msg -> fail line_no "%s" msg);
      st.next_edge <- id + 1
    | _ -> fail line_no "malformed edge line (edge <id> from <s> to <d> volume <v>)")
  | keyword :: _ -> fail line_no "unknown keyword %S" keyword

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
    List.iteri
      (fun i line ->
        let words =
          tokens_of_line line |> String.split_on_char ' '
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun w -> w <> "")
        in
        handle_line st (i + 1) words)
      (String.split_on_char '\n' text);
    if not st.version_seen then Error "missing header line (ctg 1)"
    else begin
      let n_pes =
        match st.n_pes with Some n -> n | None -> raise (Parse_error (0, "missing pes line"))
      in
      let tasks =
        List.rev st.tasks_rev
        |> List.map (fun (p : partial_task) ->
               let times =
                 match p.times with
                 | Some t -> t
                 | None -> raise (Parse_error (0, Printf.sprintf "task %d lacks times" p.id))
               in
               let energies =
                 match p.energies with
                 | Some e -> e
                 | None ->
                   raise (Parse_error (0, Printf.sprintf "task %d lacks energies" p.id))
               in
               if Array.length times <> n_pes || Array.length energies <> n_pes then
                 raise
                   (Parse_error
                      (0, Printf.sprintf "task %d: expected %d cost entries" p.id n_pes));
               try
                 Task.make ~id:p.id ~name:p.name ~exec_times:times ~energies
                   ?release:p.release ?deadline:p.deadline ()
               with Invalid_argument msg -> raise (Parse_error (0, msg)))
        |> Array.of_list
      in
      Ctg.make ~tasks ~edges:(Array.of_list (List.rev st.edges_rev))
    end
  with Parse_error (line, msg) ->
    if line = 0 then Error msg else Error (Printf.sprintf "line %d: %s" line msg)

