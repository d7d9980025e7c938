let enabled = Atomic.make false
let set_enabled v = Atomic.set enabled v

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* One mutex guards both registries; lookups happen at module
   initialisation of the instrumented libraries (and per span exit for
   histograms), never inside per-F(i,k) hot loops. *)
let registry_lock = Mutex.create ()

type counter = int Atomic.t

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

let counter name =
  with_lock registry_lock (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.add counters name c;
        c)

let incr c = if Atomic.get enabled then Atomic.incr c
let add c n = if Atomic.get enabled then ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c

let snapshot () =
  with_lock registry_lock (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) counters [])
  |> List.sort compare

type histogram = { hname : string; lock : Mutex.t; mutable samples : float list }

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram name =
  with_lock registry_lock (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h = { hname = name; lock = Mutex.create (); samples = [] } in
        Hashtbl.add histograms name h;
        h)

let observe h v =
  if Atomic.get enabled then
    with_lock h.lock (fun () -> h.samples <- v :: h.samples)

type summary = {
  count : int;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summarise samples =
  let arr = Array.of_list samples in
  Array.sort Float.compare arr;
  {
    count = Array.length arr;
    min = Noc_util.Stats.min_value arr;
    max = Noc_util.Stats.max_value arr;
    mean = Noc_util.Stats.mean arr;
    p50 = Noc_util.Stats.percentile_sorted arr ~p:50.;
    p95 = Noc_util.Stats.percentile_sorted arr ~p:95.;
    p99 = Noc_util.Stats.percentile_sorted arr ~p:99.;
  }

let summaries () =
  with_lock registry_lock (fun () ->
      Hashtbl.fold (fun _ h acc -> (h.hname, h.samples) :: acc) histograms [])
  |> List.filter_map (fun (name, samples) ->
         match samples with
         | [] -> None
         | _ :: _ -> Some (name, summarise samples))
  |> List.sort compare

let reset () =
  with_lock registry_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
      Hashtbl.iter
        (fun _ h -> with_lock h.lock (fun () -> h.samples <- []))
        histograms)
