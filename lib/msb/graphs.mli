(** The three Multimedia System Benchmarks of the paper's Sec. 6.2.

    - {!encoder}: an MP3/H.263 audio/video encoder pair, partitioned into
      24 tasks, targeting a heterogeneous 2x2 NoC ({!Platforms.av_2x2});
    - {!decoder}: the matching A/V decoder, 16 tasks, 2x2 NoC;
    - {!integrated}: encoder pair + decoder pair in one application,
      40 tasks, heterogeneous 3x3 NoC ({!Platforms.av_3x3}).

    Deadlines derive from the paper's baseline rates — 40 encoded
    frames/s and 67 decoded frames/s — divided by the {e unified
    performance ratio} of Fig. 7: at [ratio = 1.4] the encoder must
    sustain 56 frames/s and the decoder 93.8 frames/s. Nominal stage
    times and volumes are synthetic profiles (see DESIGN.md) with the
    structure of the respective codecs. *)

val encoder_period : float
(** Baseline encoder deadline, microseconds (1 / 40 f/s). *)

val encoder :
  ?ratio:float -> platform:Noc_noc.Platform.t -> clip:Profile.clip -> unit -> Noc_ctg.Ctg.t
(** 24-task A/V encoder CTG for the given platform and clip. [ratio]
    (default 1.0) tightens all deadlines by that factor. *)

val decoder : platform:Noc_noc.Platform.t -> clip:Profile.clip -> unit -> Noc_ctg.Ctg.t
(** 16-task A/V decoder CTG, at the baseline rate. *)

val integrated :
  ?ratio:float -> platform:Noc_noc.Platform.t -> clip:Profile.clip -> unit -> Noc_ctg.Ctg.t
(** 40-task integrated encoder + decoder CTG. *)
