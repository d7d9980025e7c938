(** Tables 1-3: the Multimedia System Benchmarks.

    For each of the three systems (A/V encoder on a 2x2 NoC, A/V decoder
    on a 2x2 NoC, integrated encoder+decoder on a 3x3 NoC) and each clip
    (akiyo, foreman, toybox), the paper reports EAS energy, EDF energy
    and the savings percentage. *)

type which = Encoder | Decoder | Integrated

val which_name : which -> string
val platform_of : which -> Noc_noc.Platform.t
val graph_of : which -> clip:Noc_msb.Profile.clip -> Noc_ctg.Ctg.t

type row = {
  clip : Noc_msb.Profile.clip;
  eas : Pipeline.t;
  edf : Pipeline.t;
}

type result = { which : which; rows : row list }

val run : which -> result
val render : result -> string
