type t = { ladder : float array }  (* descending, ladder.(0) = 1.0 *)

let of_ratios arr =
  let n = Array.length arr in
  if n = 0 then Error "empty level list"
  else
    let bad =
      Array.find_opt (fun r -> not (Float.is_finite r && r > 0. && r <= 1.)) arr
    in
    match bad with
    | Some r -> Error (Printf.sprintf "level %g is not in (0, 1]" r)
    | None ->
      let sorted = Array.copy arr in
      Array.sort (fun a b -> Float.compare b a) sorted;
      let dup = ref None in
      for i = 0 to n - 2 do
        if sorted.(i) = sorted.(i + 1) && !dup = None then dup := Some sorted.(i)
      done;
      (match !dup with
      | Some r -> Error (Printf.sprintf "duplicate level %g" r)
      | None ->
        if sorted.(0) <> 1. then
          Error
            (Printf.sprintf "fastest level must be 1 (f_max), highest given is %g"
               sorted.(0))
        else Ok { ladder = sorted })

let default =
  match of_ratios [| 1.0; 0.8; 0.6; 0.5 |] with
  | Ok t -> t
  | Error msg -> failwith msg

let of_string s =
  let module Scan = Noc_util.Scan in
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' in
  let n = String.length s in
  (* Comma-separated tokens, each trimmed of surrounding blanks. *)
  let rec tokens start acc =
    let stop = match Scan.find s ',' start n with -1 -> n | j -> j in
    let a = ref start and b = ref stop in
    while !a < !b && is_space s.[!a] do incr a done;
    while !b > !a && is_space s.[!b - 1] do decr b done;
    if !a = !b then Error (Scan.located s !a "empty level token (stray comma?)")
    else
      match Scan.float_sub s !a (!b - !a) with
      | r -> if stop = n then Ok (List.rev (r :: acc)) else tokens (stop + 1) (r :: acc)
      | exception Scan.Malformed ->
        Error
          (Scan.located s !a
             (Printf.sprintf "level %S is not a number" (String.sub s !a (!b - !a))))
  in
  match tokens 0 [] with
  | Error _ as e -> e
  | Ok ratios -> of_ratios (Array.of_list ratios)

(* The ladder's levels, comma-separated, each written by [add]. *)
let ladder_text add t =
  let buf = Buffer.create 64 in
  Array.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      add buf r)
    t.ladder;
  Buffer.contents buf

let to_string = ladder_text Noc_util.Scan.add_float
let hex = ladder_text Noc_util.Scan.add_hex_float

let n_levels t = Array.length t.ladder
let ratio t ~level = t.ladder.(level)
let ratios t = Array.copy t.ladder
let slowdown t ~level = 1. /. t.ladder.(level)
let energy_scale t ~level = t.ladder.(level) *. t.ladder.(level)
let pp fmt t = Format.pp_print_string fmt (to_string t)
