type affinity = Control | Signal | Media

(* Relative execution-time multiplier of running a stage class on a PE
   kind (1.0 = reference DSP running Signal code). *)
let affinity_time_factor affinity (kind : Noc_noc.Pe.kind) =
  match (affinity, kind) with
  | Control, Noc_noc.Pe.Risc_fast -> 0.6
  | Control, Noc_noc.Pe.Risc_lowpower -> 1.1
  | Control, Noc_noc.Pe.Dsp -> 1.4
  | Control, Noc_noc.Pe.Accel -> 1.8
  | Signal, Noc_noc.Pe.Risc_fast -> 1.1
  | Signal, Noc_noc.Pe.Risc_lowpower -> 2.0
  | Signal, Noc_noc.Pe.Dsp -> 0.55
  | Signal, Noc_noc.Pe.Accel -> 0.75
  | Media, Noc_noc.Pe.Risc_fast -> 1.2
  | Media, Noc_noc.Pe.Risc_lowpower -> 2.4
  | Media, Noc_noc.Pe.Dsp -> 0.8
  | Media, Noc_noc.Pe.Accel -> 0.45

(* Every stage draws 12 nJ/us on a nominal PE. *)
let power = 12.

(* [(exec_times, energies)] per PE: time = base * clip scale * affinity
   factor * PE time factor; energy = time * power * PE power factor. *)
let stage_costs platform ~(profile : Profile.t) ~base_time ~affinity =
  let n = Noc_noc.Platform.n_pes platform in
  let exec_times =
    Array.init n (fun p ->
        let pe = Noc_noc.Platform.pe platform p in
        base_time *. profile.time_scale
        *. affinity_time_factor affinity pe.Noc_noc.Pe.kind
        *. pe.Noc_noc.Pe.time_factor)
  in
  let energies =
    Array.init n (fun p ->
        let pe = Noc_noc.Platform.pe platform p in
        exec_times.(p) *. power *. pe.Noc_noc.Pe.power_factor)
  in
  (exec_times, energies)

type builder = {
  platform : Noc_noc.Platform.t;
  profile : Profile.t;
  graph : Noc_ctg.Builder.t;
}

let create platform ~profile =
  {
    platform;
    profile;
    graph = Noc_ctg.Builder.create ~n_pes:(Noc_noc.Platform.n_pes platform);
  }

let stage b ~name ~base_time ~affinity ?deadline () =
  let exec_times, energies = stage_costs b.platform ~profile:b.profile ~base_time ~affinity in
  Noc_ctg.Builder.add_task b.graph ~name ~exec_times ~energies ?deadline ()

let flow b ~src ~dst ~kbits =
  Noc_ctg.Builder.connect b.graph ~src ~dst
    ~volume:(kbits *. 1000. *. b.profile.volume_scale)

let control b ~src ~dst = Noc_ctg.Builder.connect b.graph ~src ~dst ~volume:0.

let finish b = Noc_ctg.Builder.build_exn b.graph
