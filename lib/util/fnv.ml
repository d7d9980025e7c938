let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* A [for] loop over a local ref keeps the hash in a register: the
   native compiler unboxes it, where a [String.iter] closure would box
   an [Int64] per byte. *)
let fold h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
  done;
  !h

let fnv1a64 s = fold offset_basis s
let to_hex h = Printf.sprintf "%016Lx" h
let digest s = to_hex (fnv1a64 s)
