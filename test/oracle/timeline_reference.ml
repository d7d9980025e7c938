(* The original list-based schedule table, kept verbatim as the naive
   model for differential testing of the indexed Timeline. Correctness
   here is easy to audit by eye; speed is irrelevant. *)

module Interval = Noc_util.Interval

type t = { mutable slots : Interval.t list (* sorted by start, disjoint *) }

let create () = { slots = [] }
let busy t = t.slots

let is_free t iv =
  Interval.is_empty iv || not (List.exists (Interval.overlaps iv) t.slots)

let gap_in_sorted slots ~after ~duration =
  (* Walk the sorted busy list keeping the earliest candidate start. *)
  let rec walk candidate = function
    | [] -> candidate
    | iv :: rest ->
      if Interval.is_empty iv then walk candidate rest
      else if candidate +. duration <= iv.Interval.start then candidate
      else walk (Float.max candidate iv.Interval.stop) rest
  in
  if duration = 0. then after else walk after slots

let earliest_gap t ~after ~duration =
  assert (duration >= 0.);
  gap_in_sorted t.slots ~after ~duration

let reserve t iv =
  if not (Interval.is_empty iv) then begin
    let rec insert = function
      | [] -> [ iv ]
      | hd :: tl ->
        if Interval.overlaps iv hd then
          invalid_arg
            (Format.asprintf "Timeline_reference.reserve: %a overlaps %a"
               Interval.pp iv Interval.pp hd)
        else if Interval.compare_start iv hd < 0 then iv :: hd :: tl
        else hd :: insert tl
    in
    t.slots <- insert t.slots
  end

(* The slot a reservation starting at [start] takes: the number of
   slots ending at or before it. *)
let slot_of t start = List.length (List.filter (fun iv -> iv.Interval.stop <= start) t.slots)

let reserve_slot t i ~starts ~stops d =
  let start = starts.(d) and stop = stops.(d) in
  if not (start < stop && i = slot_of t start) then
    invalid_arg
      (Format.asprintf "Timeline_reference.reserve_slot: [%g, %g) not at slot index %d"
         start stop i);
  reserve t (Interval.make ~start ~stop)

let release_slot t i ~starts ~stops d =
  let start = starts.(d) and stop = stops.(d) in
  match if i < 0 then None else List.nth_opt t.slots i with
  | Some iv when iv.Interval.start = start && iv.Interval.stop = stop ->
    t.slots <- List.filteri (fun j _ -> j <> i) t.slots
  | Some _ | None ->
    invalid_arg
      (Format.asprintf "Timeline_reference.release_slot: [%g, %g) not at slot index %d"
         start stop i)

(* The journal forms: the single ones over a stretch, stopping at the
   first entry they reject. *)
let reserve_slots tls ~ids ~slots ~starts ~stops lo hi =
  let rec go d =
    if d >= hi then hi
    else
      match reserve_slot tls.(ids.(d)) slots.(d) ~starts ~stops d with
      | () -> go (d + 1)
      | exception Invalid_argument _ -> d
  in
  go lo

let release_slots tls ~ids ~slots ~starts ~stops lo hi =
  let rec go d =
    if d < lo then lo
    else
      match release_slot tls.(ids.(d)) slots.(d) ~starts ~stops d with
      | () -> go (d - 1)
      | exception Invalid_argument _ -> d + 1
  in
  go (hi - 1)

let utilisation t ~horizon =
  assert (horizon > 0.);
  let covered =
    List.fold_left
      (fun acc iv ->
        let start = Float.min iv.Interval.start horizon in
        let stop = Float.min iv.Interval.stop horizon in
        acc +. Float.max 0. (stop -. start))
      0. t.slots
  in
  covered /. horizon

let span t = List.fold_left (fun acc iv -> Float.max acc iv.Interval.stop) 0. t.slots

let merged_busy tls ~after =
  let relevant =
    List.concat_map
      (fun tl ->
        List.filter
          (fun iv -> iv.Interval.stop > after && not (Interval.is_empty iv))
          tl.slots)
      tls
  in
  let sorted = List.sort Interval.compare_start relevant in
  let rec coalesce = function
    | [] -> []
    | [ iv ] -> [ iv ]
    | a :: b :: rest ->
      if b.Interval.start <= a.Interval.stop then coalesce (Interval.merge a b :: rest)
      else a :: coalesce (b :: rest)
  in
  coalesce sorted

let earliest_gap_multi tls ~after ~duration =
  assert (duration >= 0.);
  gap_in_sorted (merged_busy tls ~after) ~after ~duration

let pp ppf t =
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Interval.pp)
    t.slots
