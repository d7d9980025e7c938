type value = String of string | Int of int | Float of float | Bool of bool

type event = {
  name : string;
  cat : string;
  ts : float;  (* µs since the trace epoch *)
  dur : float;  (* µs *)
  args : (string * value) list;
}

let enabled = Atomic.make false
let epoch = Atomic.make 0.

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Per-domain buffers: each domain appends to its own event list (no
   lock on the hot path), and the global registry only grows under the
   lock when a domain first records. Buffers of joined domains stay
   registered so their spans survive until export/reset. *)
type buffer = { domain : int; mutable events : event list }

let buffers_lock = Mutex.create ()
let buffers : buffer list ref = ref []

let buffer_key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { domain = (Domain.self () :> int); events = [] } in
      with_lock buffers_lock (fun () -> buffers := b :: !buffers);
      b)

let set_enabled v =
  if v then Atomic.set epoch (Noc_util.Clock.wall_s ());
  Atomic.set enabled v


let now_us () = (Noc_util.Clock.wall_s () -. Atomic.get epoch) *. 1e6

let no_args () = []

let span ?(cat = "sched") ?(args = no_args) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let buffer = Domain.DLS.get buffer_key in
    let t0 = now_us () in
    let record () =
      let t1 = now_us () in
      buffer.events <-
        { name; cat; ts = t0; dur = t1 -. t0; args = args () }
        :: buffer.events;
      (* Phase-time distribution for the --stats report; milliseconds. *)
      Counters.observe (Counters.histogram name) ((t1 -. t0) /. 1e3)
    in
    match f () with
    | v ->
      record ();
      v
    | exception e ->
      record ();
      raise e
  end

let snapshot_buffers () =
  with_lock buffers_lock (fun () ->
      List.map (fun b -> (b.domain, List.rev b.events)) !buffers)

let event_count () =
  List.fold_left
    (fun acc (_, events) -> acc + List.length events)
    0 (snapshot_buffers ())

let reset () =
  with_lock buffers_lock (fun () ->
      List.iter (fun b -> b.events <- []) !buffers)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON export.                                     *)

let value_json = function
  | String s -> Json.String s
  | Int i -> Json.int i
  | Float f -> Json.Number f
  | Bool b -> Json.Bool b

let args_json args = Json.Obj (List.map (fun (k, v) -> (k, value_json v)) args)

let event_json ~domain e =
  Json.Obj
    [
      ("ph", Json.String "X"); ("dur", Json.Number e.dur);
      ("name", Json.String e.name); ("cat", Json.String e.cat);
      ("pid", Json.int domain); ("tid", Json.int domain);
      ("ts", Json.Number e.ts); ("args", args_json e.args);
    ]

let export () =
  let per_domain =
    List.sort compare (List.filter (fun (_, es) -> es <> []) (snapshot_buffers ()))
  in
  let counters = Counters.snapshot () in
  let histograms = Counters.summaries () in
  let events =
    List.concat_map
      (fun (domain, events) ->
        Json.Obj
          [
            ("ph", Json.String "M"); ("name", Json.String "process_name");
            ("pid", Json.int domain); ("tid", Json.int domain); ("ts", Json.int 0);
            ( "args",
              Json.Obj [ ("name", Json.String (Printf.sprintf "domain %d" domain)) ] );
          ]
        :: List.map (event_json ~domain) events)
      per_domain
  in
  (* One final counter event so Perfetto renders the totals as a track. *)
  let last_ts =
    List.fold_left
      (fun acc (_, events) ->
        List.fold_left (fun acc e -> Float.max acc (e.ts +. e.dur)) acc events)
      0. per_domain
  in
  let counter_args = List.map (fun (k, v) -> (k, Json.int v)) counters in
  let counter_event =
    if counters = [] then []
    else
      [
        Json.Obj
          [
            ("ph", Json.String "C"); ("name", Json.String "nocsched counters");
            ("pid", Json.int 0); ("tid", Json.int 0); ("ts", Json.Number last_ts);
            ("args", Json.Obj counter_args);
          ];
      ]
  in
  let histogram (k, (s : Counters.summary)) =
    ( k,
      Json.Obj
        [
          ("count", Json.int s.count); ("min", Json.Number s.min);
          ("max", Json.Number s.max); ("mean", Json.Number s.mean); ("p50", Json.Number s.p50);
          ("p95", Json.Number s.p95); ("p99", Json.Number s.p99);
        ] )
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (events @ counter_event));
         ("displayTimeUnit", Json.String "ms");
         ( "otherData",
           Json.Obj
             [
               ("schema", Json.String "nocsched/trace/v1");
               ("counters", Json.Obj counter_args);
               ("histograms", Json.Obj (List.map histogram histograms));
             ] );
       ])
  ^ "\n"
