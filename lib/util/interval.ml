type t = { start : float; stop : float }

let make ~start ~stop =
  assert (Float.is_finite start && Float.is_finite stop);
  assert (start <= stop);
  { start; stop }

let is_empty t = t.start = t.stop

let overlaps a b =
  (not (is_empty a)) && (not (is_empty b)) && a.start < b.stop && b.start < a.stop

let merge a b = make ~start:(Float.min a.start b.start) ~stop:(Float.max a.stop b.stop)

let compare_start a b =
  let c = Float.compare a.start b.start in
  if c <> 0 then c else Float.compare a.stop b.stop

let equal a b = a.start = b.start && a.stop = b.stop
let pp ppf t = Format.fprintf ppf "[%g, %g)" t.start t.stop
