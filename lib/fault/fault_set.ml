module Routing = Noc_noc.Routing

type t = {
  faults : Fault.t list; (* sorted by Fault.compare, deduplicated *)
  mutable degraded_cache : (Noc_noc.Platform.t * Noc_noc.Degraded.t) list;
      (* keyed by physical platform identity; one view per platform *)
}

let of_list faults =
  { faults = List.sort_uniq Fault.compare faults; degraded_cache = [] }

let empty = of_list []
let is_empty t = t.faults = []

let of_strings specs =
  let rec go acc = function
    | [] -> Ok (of_list acc)
    | spec :: rest -> (
      match Fault.of_string spec with
      | Ok f -> go (f :: acc) rest
      | Error msg -> Error (Printf.sprintf "fault %S: %s" spec msg))
  in
  go [] specs

let key t = String.concat "," (List.map Fault.to_string t.faults)

let check platform t =
  let n = Noc_noc.Platform.n_pes platform in
  let topology = Noc_noc.Platform.topology platform in
  let problem (f : Fault.t) =
    match f.element with
    | Fault.Pe i when i >= n ->
      Some (Printf.sprintf "PE %d is not on the platform (%d PEs)" i n)
    | Fault.Link { from_node = a; to_node = b }
      when a >= n || b >= n || not (Noc_noc.Topology.are_neighbours topology a b) ->
      Some (Printf.sprintf "%d->%d is not a link of the platform" a b)
    | Fault.Pe _ | Fault.Link _ -> None
  in
  match List.find_map (fun f -> Option.map (fun msg -> (f, msg)) (problem f)) t.faults with
  | None -> Ok t
  | Some (f, msg) -> Error (Printf.sprintf "fault %S: %s" (Fault.to_string f) msg)

let pp ppf t =
  if is_empty t then Format.pp_print_string ppf "no faults"
  else Format.pp_print_string ppf (key t)

(* ------------------------------------------------------------------ *)
(* Queries. Fault sets are tiny (a handful of entries), so linear scans
   are cheaper than any index. *)

let pe_failed_at t ~pe ~time =
  List.exists
    (fun (f : Fault.t) ->
      match f.element with Fault.Pe i -> i = pe && Fault.active_at f ~time | Fault.Link _ -> false)
    t.faults

let link_failed_at t ~(link : Routing.link) ~time =
  List.exists
    (fun (f : Fault.t) ->
      match f.element with
      | Fault.Link l -> Routing.link_equal l link && Fault.active_at f ~time
      | Fault.Pe _ -> false)
    t.faults

let failed_pes t =
  List.filter_map
    (fun (f : Fault.t) -> match f.element with Fault.Pe i -> Some i | Fault.Link _ -> None)
    t.faults
  |> List.sort_uniq compare

let failed_links t =
  List.filter_map
    (fun (f : Fault.t) ->
      match f.element with Fault.Link l -> Some l | Fault.Pe _ -> None)
    t.faults
  |> List.sort_uniq compare

let boundaries t =
  List.concat_map
    (fun (f : Fault.t) ->
      (if f.from_time > 0. then [ f.from_time ] else [])
      @ if Float.is_finite f.until_time then [ f.until_time ] else [])
    t.faults
  |> List.sort_uniq Float.compare

(* ------------------------------------------------------------------ *)
(* Degraded view, memoised per (fault set, platform). The reschedulers
   are conservative: an element that fails at any point is treated as
   dead for the whole horizon, so one static view covers transient
   faults too. *)

let degraded t platform =
  match List.assq_opt platform t.degraded_cache with
  | Some view -> view
  | None ->
    let view =
      Noc_noc.Degraded.make platform ~failed_pes:(failed_pes t)
        ~failed_links:(failed_links t)
    in
    t.degraded_cache <- (platform, view) :: t.degraded_cache;
    view

(* ------------------------------------------------------------------ *)
(* Seeded random fault campaigns. *)

(* The probability that a sampled fault is transient. *)
let transient_fraction = 0.5

let sample ~seed ~platform ?(n_link_faults = 1) ?(n_pe_faults = 1)
    ?(horizon = 1_000.) () =
  if n_link_faults < 0 || n_pe_faults < 0 then
    invalid_arg "Fault_set.sample: negative fault count";
  if not (horizon > 0.) then invalid_arg "Fault_set.sample: horizon must be positive";
  let rng = Noc_util.Prng.create ~seed:(seed lxor 0x66617573) in
  let n_pes = Noc_noc.Platform.n_pes platform in
  if n_pe_faults >= n_pes then
    invalid_arg "Fault_set.sample: at least one PE must survive";
  let window () =
    if Noc_util.Prng.float rng ~bound:1. < transient_fraction then begin
      let from_time = Noc_util.Prng.float rng ~bound:(horizon *. 0.5) in
      let length =
        Noc_util.Prng.float_in rng ~min:(horizon *. 0.05) ~max:(horizon *. 0.4)
      in
      (from_time, from_time +. length)
    end
    else (Noc_util.Prng.float rng ~bound:(horizon *. 0.3), infinity)
  in
  let pes =
    Noc_util.Prng.sample_without_replacement rng ~k:n_pe_faults ~n:n_pes
    |> List.map (fun index ->
           let from_time, until_time = window () in
           Fault.pe ~from_time ~until_time index ())
  in
  let all_links = Array.of_list (Noc_noc.Platform.all_links platform) in
  if n_link_faults > Array.length all_links then
    invalid_arg "Fault_set.sample: more link faults than links";
  let links =
    Noc_util.Prng.sample_without_replacement rng ~k:n_link_faults
      ~n:(Array.length all_links)
    |> List.map (fun index ->
           let l = all_links.(index) in
           let from_time, until_time = window () in
           Fault.link ~from_time ~until_time ~from_node:l.Routing.from_node
             ~to_node:l.Routing.to_node ())
  in
  of_list (pes @ links)
