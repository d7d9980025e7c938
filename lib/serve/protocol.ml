module Json = Noc_obs.Json

let schema = "nocsched/serve/v1"

type request =
  | Schedule of {
      ctg_text : string;
      mesh : int * int;
      algo : Noc_experiments.Runner.algo;
      decisions : bool;
      dvfs : Noc_dvfs.Vf_table.t option;
    }
  | Simulate of {
      ctg_text : string;
      mesh : int * int;
      algo : Noc_experiments.Runner.algo;
      faults : string list;
      self_timed : bool;
    }
  | Reschedule of {
      ctg_text : string;
      mesh : int * int;
      algo : Noc_experiments.Runner.algo;
      faults : string list;
    }
  | Stats
  | Shutdown

let op_name = function
  | Schedule _ -> "schedule"
  | Simulate _ -> "simulate"
  | Reschedule _ -> "reschedule"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

(* ------------------------------------------------------------------ *)
(* Field accessors over a parsed object.                               *)

let string_field ~default name obj =
  match Json.member name obj with
  | None -> Ok default
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let bool_field ~default name obj =
  match Json.member name obj with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let string_list_field name obj =
  match Json.member name obj with
  | None -> Ok []
  | Some (Json.List items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.String s :: rest -> go (s :: acc) rest
      | _ :: _ -> Error (Printf.sprintf "field %S must be a list of strings" name)
    in
    go [] items
  | Some _ -> Error (Printf.sprintf "field %S must be a list of strings" name)

let parse_mesh s =
  let module Scan = Noc_util.Scan in
  let x = ref (-1) and separators = ref 0 in
  String.iteri
    (fun i c ->
      if c = 'x' || c = 'X' then begin
        x := i;
        incr separators
      end)
    s;
  if !separators <> 1 then
    Error (Scan.located s 0 (Printf.sprintf "mesh %S must look like 4x4" s))
  else
    let dim start stop =
      match Scan.int_sub s start (stop - start) with
      | v when v > 0 -> Ok v
      | _ | (exception Scan.Malformed) ->
        Error
          (Scan.located s start
             (Printf.sprintf "mesh %S must be COLSxROWS with positive integers" s))
    in
    match (dim 0 !x, dim (!x + 1) (String.length s)) with
    | Ok cols, Ok rows -> Ok (cols, rows)
    | (Error _ as e), _ | _, (Error _ as e) -> e

let parse_algo s =
  match Noc_experiments.Runner.algo_of_string s with
  | Some algo -> Ok algo
  | None ->
    Error (Printf.sprintf "algo %S must be eas, eas-base or edf" (String.lowercase_ascii s))

let mesh_name (cols, rows) = Printf.sprintf "%dx%d" cols rows

(* ------------------------------------------------------------------ *)
(* Request parsing.                                                    *)

let ( let* ) = Result.bind

let ctg_mesh_algo obj =
  let* ctg_text =
    match Json.member "ctg" obj with
    | Some (Json.String s) -> Ok s
    | Some _ -> Error "field \"ctg\" must be a string"
    | None -> Error "missing field \"ctg\""
  in
  let* mesh_text = string_field ~default:"4x4" "mesh" obj in
  let* mesh = parse_mesh mesh_text in
  let* algo_text = string_field ~default:"eas" "algo" obj in
  let* algo = parse_algo algo_text in
  Ok (ctg_text, mesh, algo)

let parse_request line =
  match Json.parse line with
  | Error msg -> Error ("malformed request JSON: " ^ msg)
  | Ok (Json.Obj _ as obj) ->
    let id =
      match Json.member "id" obj with Some (Json.String s) -> Some s | _ -> None
    in
    let* request =
      let* op =
        match Json.member "op" obj with
        | Some (Json.String s) -> Ok s
        | Some _ -> Error "field \"op\" must be a string"
        | None -> Error "missing field \"op\""
      in
      match op with
      | "schedule" ->
        let* ctg_text, mesh, algo = ctg_mesh_algo obj in
        let* decisions = bool_field ~default:false "decisions" obj in
        let* dvfs_flag = bool_field ~default:false "dvfs" obj in
        let* vf_levels =
          match Json.member "vf_levels" obj with
          | None -> Ok None
          | Some (Json.String s) -> (
            match Noc_dvfs.Vf_table.of_string s with
            | Ok t -> Ok (Some t)
            | Error msg -> Error (Printf.sprintf "field \"vf_levels\": %s" msg))
          | Some _ -> Error "field \"vf_levels\" must be a string"
        in
        let* dvfs =
          match (dvfs_flag, vf_levels) with
          | false, Some _ -> Error "field \"vf_levels\" needs \"dvfs\": true"
          | false, None -> Ok None
          | true, Some t -> Ok (Some t)
          | true, None -> Ok (Some Noc_dvfs.Vf_table.default)
        in
        Ok (Schedule { ctg_text; mesh; algo; decisions; dvfs })
      | "simulate" ->
        let* ctg_text, mesh, algo = ctg_mesh_algo obj in
        let* faults = string_list_field "faults" obj in
        let* self_timed = bool_field ~default:false "self_timed" obj in
        Ok (Simulate { ctg_text; mesh; algo; faults; self_timed })
      | "reschedule" ->
        let* ctg_text, mesh, algo = ctg_mesh_algo obj in
        let* faults = string_list_field "faults" obj in
        Ok (Reschedule { ctg_text; mesh; algo; faults })
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | other ->
        Error
          (Printf.sprintf
             "unknown op %S (known: schedule, simulate, reschedule, stats, shutdown)"
             other)
    in
    Ok (request, id)
  | Ok _ -> Error "malformed request: expected a JSON object"

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let with_id id fields =
  match id with None -> fields | Some id -> ("id", Json.String id) :: fields

let request_to_line ?id request =
  let base = [ ("op", Json.String (op_name request)) ] in
  let fields =
    match request with
    | Schedule { ctg_text; mesh; algo; decisions; dvfs } ->
      base
      @ [
          ("ctg", Json.String ctg_text);
          ("mesh", Json.String (mesh_name mesh));
          ("algo", Json.String (Noc_experiments.Runner.algo_name algo
                                |> String.lowercase_ascii));
          ("decisions", Json.Bool decisions);
        ]
      @ (match dvfs with
        | None -> []
        | Some table ->
          [
            ("dvfs", Json.Bool true);
            ("vf_levels", Json.String (Noc_dvfs.Vf_table.to_string table));
          ])
    | Simulate { ctg_text; mesh; algo; faults; self_timed } ->
      base
      @ [
          ("ctg", Json.String ctg_text);
          ("mesh", Json.String (mesh_name mesh));
          ("algo", Json.String (Noc_experiments.Runner.algo_name algo
                                |> String.lowercase_ascii));
          ("faults", Json.List (List.map (fun f -> Json.String f) faults));
          ("self_timed", Json.Bool self_timed);
        ]
    | Reschedule { ctg_text; mesh; algo; faults } ->
      base
      @ [
          ("ctg", Json.String ctg_text);
          ("mesh", Json.String (mesh_name mesh));
          ("algo", Json.String (Noc_experiments.Runner.algo_name algo
                                |> String.lowercase_ascii));
          ("faults", Json.List (List.map (fun f -> Json.String f) faults));
        ]
    | Stats | Shutdown -> base
  in
  Json.to_string (Json.Obj (with_id id fields))

let error_line ?id msg =
  Json.to_string
    (Json.Obj
       (with_id id
          [
            ("schema", Json.String schema); ("ok", Json.Bool false);
            ("error", Json.String msg);
          ]))

let ok_line ?id ~op fields =
  Json.to_string
    (Json.Obj
       (with_id id
          ([
             ("schema", Json.String schema); ("ok", Json.Bool true);
             ("op", Json.String op);
           ]
          @ fields)))

(* The line, then its newline, each written from the string itself:
   [Unix.write_substring]'s own staging copy is the only one. *)
let write_line fd line =
  let rec go s off len =
    if off < len then go s (off + Unix.write_substring fd s off (len - off)) len
  in
  go line 0 (String.length line);
  go "\n" 0 1
