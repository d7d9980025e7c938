type element = Link of Noc_noc.Routing.link | Pe of int

type t = { element : element; from_time : float; until_time : float }

let check_window ~from_time ~until_time =
  if not (from_time >= 0.) then invalid_arg "Fault: fault cannot start before time 0";
  if not (until_time > from_time) then
    invalid_arg "Fault: fault window must be non-empty"

let link ?(from_time = 0.) ?(until_time = infinity) ~from_node ~to_node () =
  check_window ~from_time ~until_time;
  if from_node < 0 || to_node < 0 || from_node = to_node then
    invalid_arg "Fault.link: bad endpoints";
  { element = Link { from_node; to_node }; from_time; until_time }

let pe ?(from_time = 0.) ?(until_time = infinity) index () =
  check_window ~from_time ~until_time;
  if index < 0 then invalid_arg "Fault.pe: negative PE index";
  { element = Pe index; from_time; until_time }

let active_at t ~time = t.from_time <= time && time < t.until_time

(* Element ordering groups PEs before links; the total order makes fault
   sets canonical. *)
let compare_element a b =
  match (a, b) with
  | Pe i, Pe j -> compare i j
  | Pe _, Link _ -> -1
  | Link _, Pe _ -> 1
  | Link x, Link y ->
    compare (x.Noc_noc.Routing.from_node, x.to_node) (y.Noc_noc.Routing.from_node, y.to_node)

let compare a b =
  let c = compare_element a.element b.element in
  if c <> 0 then c else Stdlib.compare (a.from_time, a.until_time) (b.from_time, b.until_time)

(* ------------------------------------------------------------------ *)
(* Text syntax: "pe:2", "link:3-7", optionally "@FROM:UNTIL" with either
   bound omitted — "pe:2@100:" fails PE 2 from t=100 on, "link:3-7@10:20"
   takes the link down during [10, 20). *)

let to_string t =
  let module Scan = Noc_util.Scan in
  let buf = Buffer.create 32 in
  (match t.element with
  | Pe i ->
    Buffer.add_string buf "pe:";
    Scan.add_int buf i
  | Link l ->
    Buffer.add_string buf "link:";
    Scan.add_int buf l.Noc_noc.Routing.from_node;
    Buffer.add_char buf '-';
    Scan.add_int buf l.to_node);
  if not (t.from_time = 0. && t.until_time = infinity) then begin
    Buffer.add_char buf '@';
    if t.from_time <> 0. then Scan.add_float buf t.from_time;
    Buffer.add_char buf ':';
    if t.until_time <> infinity then Scan.add_float buf t.until_time
  end;
  Buffer.contents buf

(* Position-tracked parsing: every failure names the offending token,
   the 0-based character position where it starts in the original input
   and its line and column, so a typo deep inside "link:12-1x@100:200"
   is pinpointed rather than reported as a generic bad spec. Offsets
   below are into the untrimmed input. *)
let of_string spec =
  let module Scan = Noc_util.Scan in
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' in
  let first =
    let rec skip i = if i < String.length spec && is_space spec.[i] then skip (i + 1) else i in
    skip 0
  in
  let stop =
    let rec back i = if i > first && is_space spec.[i - 1] then back (i - 1) else i in
    back (String.length spec)
  in
  let sub a b = String.sub spec a (b - a) in
  let fail ~at ~until what =
    Error
      (Scan.located spec at (Printf.sprintf "%s %S at character %d" what (sub at until) at))
  in
  (* Exactly one [c] in [a, b). *)
  let single c a b =
    let i = Scan.find spec c a b in
    if i >= 0 && Scan.find spec c (i + 1) b < 0 then Some i else None
  in
  let int a b = try Some (Scan.int_sub spec a (b - a)) with Scan.Malformed -> None in
  let bound ~what a b default =
    if a = b then Ok default
    else try Ok (Scan.float_sub spec a (b - a)) with Scan.Malformed -> fail ~at:a ~until:b what
  in
  let window =
    match Scan.find spec '@' first stop with
    | -1 -> Ok (stop, 0., infinity)
    | at_sign -> (
      let w = at_sign + 1 in
      match single ':' w stop with
      | None -> fail ~at:w ~until:stop "bad fault window (want @FROM:UNTIL)"
      | Some colon -> (
        match
          ( bound ~what:"bad fault onset time" w colon 0.,
            bound ~what:"bad fault end time" (colon + 1) stop infinity )
        with
        | Ok f, Ok u ->
          if f >= 0. && u > f then Ok (at_sign, f, u)
          else
            fail ~at:w ~until:stop
              "empty or negative fault window (need 0 <= FROM < UNTIL)"
        | (Error _ as e), _ | _, (Error _ as e) -> e))
  in
  match window with
  | Error _ as e -> e
  | Ok (body_stop, from_time, until_time) -> (
    let element = single ':' first body_stop in
    match element with
    | Some colon when sub first colon = "pe" -> (
      match int (colon + 1) body_stop with
      | Some i when i >= 0 -> Ok { element = Pe i; from_time; until_time }
      | Some _ | None -> fail ~at:(colon + 1) ~until:body_stop "bad PE index")
    | Some colon when sub first colon = "link" -> (
      let ends = colon + 1 in
      match single '-' ends body_stop with
      | None -> fail ~at:ends ~until:body_stop "bad link endpoints (want A-B)"
      | Some dash -> (
        match (int ends dash, int (dash + 1) body_stop) with
        | None, _ -> fail ~at:ends ~until:dash "bad link endpoint"
        | _, None -> fail ~at:(dash + 1) ~until:body_stop "bad link endpoint"
        | Some from_node, Some to_node ->
          if from_node < 0 then fail ~at:ends ~until:dash "negative link endpoint"
          else if to_node < 0 then
            fail ~at:(dash + 1) ~until:body_stop "negative link endpoint"
          else if from_node = to_node then
            fail ~at:ends ~until:body_stop "link endpoints must differ"
          else Ok { element = Link { from_node; to_node }; from_time; until_time }))
    | Some _ | None ->
      fail ~at:first ~until:body_stop "bad fault element (want pe:N or link:A-B)")

let pp_element ppf = function
  | Pe i -> Format.fprintf ppf "pe %d" i
  | Link l -> Format.fprintf ppf "link %a" Noc_noc.Routing.pp_link l
