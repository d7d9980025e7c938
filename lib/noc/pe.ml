type kind = Risc_fast | Risc_lowpower | Dsp | Accel

type t = { index : int; kind : kind; time_factor : float; power_factor : float }

let make ~index ~kind ~time_factor ~power_factor =
  if not (time_factor > 0. && power_factor > 0.) then
    invalid_arg "Pe.make: factors must be positive";
  { index; kind; time_factor; power_factor }

let default_factors = function
  | Risc_fast -> (0.55, 3.2)
  | Risc_lowpower -> (1.9, 0.25)
  | Dsp -> (1.0, 1.0)
  | Accel -> (0.5, 1.9)

let of_kind ~index kind =
  let time_factor, power_factor = default_factors kind in
  make ~index ~kind ~time_factor ~power_factor

let all_kinds = [| Risc_fast; Risc_lowpower; Dsp; Accel |]

let kind_name = function
  | Risc_fast -> "risc-fast"
  | Risc_lowpower -> "risc-lowpower"
  | Dsp -> "dsp"
  | Accel -> "accel"
