type t = { id : int; src : int; dst : int; volume : float }

let make ~id ~src ~dst ~volume =
  if src < 0 || dst < 0 then invalid_arg "Edge.make: negative task id";
  if src = dst then invalid_arg "Edge.make: self loop";
  if not (volume >= 0. && Float.is_finite volume) then
    invalid_arg "Edge.make: volume must be non-negative";
  { id; src; dst; volume }
