let encoder_period = 1.0e6 /. 40.
let decoder_period = 1.0e6 /. 67.

(* Nominal stage times are microseconds of Signal code on the reference
   DSP; the audio frame is ~18 kbits of PCM, the CIF video frame ~1.2
   Mbits. Times are sized so that at ratio 1.0 an energy-minimal
   placement fits the period loosely and tightening the ratio forces
   migration to fast, energy-hungry PEs (the Fig. 7 trade-off). *)

let add_mp3_encoder b ~deadline =
  let open Codec in
  let capture = stage b ~name:"audio_capture" ~base_time:720. ~affinity:Control () in
  let framer = stage b ~name:"audio_framer" ~base_time:480. ~affinity:Control () in
  let psycho = stage b ~name:"psycho_model" ~base_time:2520. ~affinity:Signal () in
  let subband = stage b ~name:"subband_filter" ~base_time:2280. ~affinity:Signal () in
  let mdct = stage b ~name:"mdct" ~base_time:1800. ~affinity:Signal () in
  let bit_alloc = stage b ~name:"bit_alloc" ~base_time:840. ~affinity:Control () in
  let quantize = stage b ~name:"quantize_audio" ~base_time:1560. ~affinity:Signal () in
  let huffman = stage b ~name:"huffman_audio" ~base_time:1320. ~affinity:Control () in
  let pack = stage b ~name:"mp3_pack" ~base_time:540. ~affinity:Control ~deadline () in
  flow b ~src:capture ~dst:framer ~kbits:72.4;
  flow b ~src:framer ~dst:psycho ~kbits:72.4;
  flow b ~src:framer ~dst:subband ~kbits:72.4;
  flow b ~src:subband ~dst:mdct ~kbits:72.4;
  flow b ~src:psycho ~dst:bit_alloc ~kbits:16.;
  flow b ~src:mdct ~dst:quantize ~kbits:72.4;
  flow b ~src:bit_alloc ~dst:quantize ~kbits:8.;
  flow b ~src:quantize ~dst:huffman ~kbits:24.;
  flow b ~src:huffman ~dst:pack ~kbits:16.;
  pack

let add_h263_encoder b ~deadline =
  let open Codec in
  let capture = stage b ~name:"video_capture" ~base_time:900. ~affinity:Control () in
  let preprocess = stage b ~name:"preprocess" ~base_time:2100. ~affinity:Media () in
  let motion_est = stage b ~name:"motion_est" ~base_time:8400. ~affinity:Media () in
  let motion_comp = stage b ~name:"motion_comp" ~base_time:3000. ~affinity:Media () in
  let dct = stage b ~name:"dct" ~base_time:3600. ~affinity:Signal () in
  let quantize = stage b ~name:"quantize_video" ~base_time:1920. ~affinity:Signal () in
  let zigzag = stage b ~name:"zigzag_rle" ~base_time:1080. ~affinity:Control () in
  let vlc = stage b ~name:"vlc_encode" ~base_time:2520. ~affinity:Control () in
  let dequant = stage b ~name:"dequant_recon" ~base_time:1680. ~affinity:Signal () in
  let idct = stage b ~name:"idct_recon" ~base_time:3300. ~affinity:Signal () in
  let store = stage b ~name:"frame_store" ~base_time:960. ~affinity:Control () in
  let rate_ctl = stage b ~name:"rate_control" ~base_time:780. ~affinity:Control () in
  let pack = stage b ~name:"h263_pack" ~base_time:660. ~affinity:Control ~deadline () in
  flow b ~src:capture ~dst:preprocess ~kbits:1216.;
  flow b ~src:preprocess ~dst:motion_est ~kbits:1216.;
  flow b ~src:preprocess ~dst:motion_comp ~kbits:1216.;
  flow b ~src:motion_est ~dst:motion_comp ~kbits:40.;
  flow b ~src:motion_comp ~dst:dct ~kbits:1216.;
  flow b ~src:dct ~dst:quantize ~kbits:1216.;
  flow b ~src:quantize ~dst:zigzag ~kbits:1216.;
  flow b ~src:zigzag ~dst:vlc ~kbits:600.;
  flow b ~src:quantize ~dst:dequant ~kbits:1216.;
  flow b ~src:dequant ~dst:idct ~kbits:1216.;
  flow b ~src:idct ~dst:store ~kbits:1216.;
  flow b ~src:vlc ~dst:rate_ctl ~kbits:4.;
  flow b ~src:vlc ~dst:pack ~kbits:240.;
  control b ~src:rate_ctl ~dst:pack;
  pack

let add_encoder b ~deadline =
  let open Codec in
  let mp3 = add_mp3_encoder b ~deadline in
  let h263 = add_h263_encoder b ~deadline in
  let mux = stage b ~name:"av_mux" ~base_time:600. ~affinity:Control () in
  let sync = stage b ~name:"sync_ctrl" ~base_time:360. ~affinity:Control ~deadline () in
  flow b ~src:mp3 ~dst:mux ~kbits:240.;
  flow b ~src:h263 ~dst:mux ~kbits:320.;
  flow b ~src:mux ~dst:sync ~kbits:8.;
  sync

let add_decoder b ~deadline =
  let open Codec in
  let demux = stage b ~name:"av_demux" ~base_time:540. ~affinity:Control () in
  (* MP3 decoder chain. *)
  let mp3_parse = stage b ~name:"mp3_parse" ~base_time:600. ~affinity:Control () in
  let huffman_dec = stage b ~name:"huffman_dec" ~base_time:1440. ~affinity:Control () in
  let dequant_audio = stage b ~name:"dequant_audio" ~base_time:1200. ~affinity:Signal () in
  let imdct = stage b ~name:"imdct" ~base_time:1800. ~affinity:Signal () in
  let synth = stage b ~name:"synth_filter" ~base_time:2280. ~affinity:Signal () in
  let pcm_out = stage b ~name:"pcm_out" ~base_time:540. ~affinity:Control ~deadline () in
  (* H.263 decoder chain. *)
  let h263_parse = stage b ~name:"h263_parse" ~base_time:780. ~affinity:Control () in
  let vlc_dec = stage b ~name:"vlc_decode" ~base_time:2280. ~affinity:Control () in
  let dequant_video = stage b ~name:"dequant_video" ~base_time:1560. ~affinity:Signal () in
  let izigzag = stage b ~name:"izigzag" ~base_time:840. ~affinity:Control () in
  let idct = stage b ~name:"idct_dec" ~base_time:3600. ~affinity:Signal () in
  let motion_comp = stage b ~name:"motion_comp_dec" ~base_time:2880. ~affinity:Media () in
  let display = stage b ~name:"display_prep" ~base_time:1320. ~affinity:Media () in
  let sync = stage b ~name:"av_sync" ~base_time:420. ~affinity:Control () in
  let out = stage b ~name:"frame_out" ~base_time:600. ~affinity:Control ~deadline () in
  flow b ~src:demux ~dst:mp3_parse ~kbits:240.;
  flow b ~src:mp3_parse ~dst:huffman_dec ~kbits:240.;
  flow b ~src:huffman_dec ~dst:dequant_audio ~kbits:240.;
  flow b ~src:dequant_audio ~dst:imdct ~kbits:72.4;
  flow b ~src:imdct ~dst:synth ~kbits:72.4;
  flow b ~src:synth ~dst:pcm_out ~kbits:72.4;
  flow b ~src:demux ~dst:h263_parse ~kbits:320.;
  flow b ~src:h263_parse ~dst:vlc_dec ~kbits:320.;
  flow b ~src:vlc_dec ~dst:dequant_video ~kbits:600.;
  flow b ~src:dequant_video ~dst:izigzag ~kbits:1216.;
  flow b ~src:izigzag ~dst:idct ~kbits:1216.;
  flow b ~src:idct ~dst:motion_comp ~kbits:1216.;
  flow b ~src:motion_comp ~dst:display ~kbits:1216.;
  flow b ~src:pcm_out ~dst:sync ~kbits:8.;
  flow b ~src:display ~dst:sync ~kbits:16.;
  flow b ~src:sync ~dst:out ~kbits:1216.;
  out

let check_ratio ratio =
  if not (ratio > 0.) then invalid_arg "Msb: performance ratio must be positive"

let encoder ?(ratio = 1.0) ~platform ~clip () =
  check_ratio ratio;
  let b = Codec.create platform ~profile:(Profile.scales clip) in
  let _sink = add_encoder b ~deadline:(encoder_period /. ratio) in
  Codec.finish b

let decoder ~platform ~clip () =
  let b = Codec.create platform ~profile:(Profile.scales clip) in
  let _sink = add_decoder b ~deadline:decoder_period in
  Codec.finish b

let integrated ?(ratio = 1.0) ~platform ~clip () =
  check_ratio ratio;
  let b = Codec.create platform ~profile:(Profile.scales clip) in
  let _enc = add_encoder b ~deadline:(encoder_period /. ratio) in
  let _dec = add_decoder b ~deadline:(decoder_period /. ratio) in
  Codec.finish b
