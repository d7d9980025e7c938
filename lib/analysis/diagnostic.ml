type severity = Error | Warning | Info

type location =
  | Nowhere
  | Task of int
  | Edge of int
  | Pe of int
  | Tile of int
  | Link of Noc_noc.Routing.link
  | Route of int list
  | Channel_cycle of Noc_noc.Routing.link list

type t = {
  rule : string;
  severity : severity;
  location : location;
  message : string;
}

let make severity ~rule location fmt =
  Printf.ksprintf (fun message -> { rule; severity; location; message }) fmt

let error ~rule location fmt = make Error ~rule location fmt
let warning ~rule location fmt = make Warning ~rule location fmt
let info ~rule location fmt = make Info ~rule location fmt

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let link_to_string (l : Noc_noc.Routing.link) =
  Printf.sprintf "%d->%d" l.from_node l.to_node

let location_to_string = function
  | Nowhere -> ""
  | Task i -> Printf.sprintf "task %d" i
  | Edge e -> Printf.sprintf "edge %d" e
  | Pe p -> Printf.sprintf "pe %d" p
  | Tile t -> Printf.sprintf "tile %d" t
  | Link l -> Printf.sprintf "link %s" (link_to_string l)
  | Route nodes ->
    Printf.sprintf "route %s" (String.concat "->" (List.map string_of_int nodes))
  | Channel_cycle links ->
    Printf.sprintf "channels %s" (String.concat " => " (List.map link_to_string links))

(* Severity rank for the canonical report order: errors first. *)
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let sort diagnostics =
  List.stable_sort
    (fun a b ->
      let c = compare (severity_rank a.severity) (severity_rank b.severity) in
      if c <> 0 then c
      else
        let c = compare a.rule b.rule in
        if c <> 0 then c
        else
          let c = compare (location_to_string a.location) (location_to_string b.location) in
          if c <> 0 then c else compare a.message b.message)
    diagnostics

let count diagnostics =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) diagnostics

let exit_code diagnostics =
  let errors, warnings, _ = count diagnostics in
  if errors > 0 then 2 else if warnings > 0 then 1 else 0

let pp ppf d =
  match d.location with
  | Nowhere ->
    Format.fprintf ppf "%s %s: %s" (severity_name d.severity) d.rule d.message
  | loc ->
    Format.fprintf ppf "%s %s [%s]: %s" (severity_name d.severity) d.rule
      (location_to_string loc) d.message

let to_json ?(routing = "xy") ?(faults = []) diagnostics =
  let open Noc_obs.Json in
  let diagnostics = sort diagnostics in
  let errors, warnings, infos = count diagnostics in
  let diagnostic d =
    Obj
      [
        ("rule", String d.rule);
        ("severity", String (severity_name d.severity));
        ("location", String (location_to_string d.location));
        ("message", String d.message);
      ]
  in
  to_string
    (Obj
       [
         ("schema", String "nocsched/analysis/v2");
         ("routing", String routing);
         ( "faults",
           Obj
             [
               ("count", int (List.length faults));
               ("elements", List (List.map (fun f -> String f) faults));
             ] );
         ("diagnostics", List (List.map diagnostic diagnostics));
         ( "summary",
           Obj [ ("errors", int errors); ("warnings", int warnings); ("infos", int infos) ]
         );
       ])
  ^ "\n"
